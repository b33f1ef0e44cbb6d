"""Shared infrastructure for the per-figure experiment modules.

Scale: the paper replays 10 M post-cache references per workload on a C++
simulator; this pure-Python reproduction defaults to
``REPRO_TRACE_LEN`` (default 1200) references per core and
``REPRO_CORES`` (default 8) cores.  All reported quantities are
per-reference rates or CPI ratios, which are stable at this scale; raise
the env vars for tighter confidence intervals.

Every simulation cell goes through :func:`cell`/:func:`run_cells`, which
delegate to the :mod:`repro.perf` engine: identical cells are simulated
once, results are cached on disk across runs, and cold cells fan out over
a process pool when ``--jobs``/``REPRO_JOBS`` allows.

Most figures are one shape: benches x declared columns (:class:`Column`),
each cell read as a speedup over another column or as a counter, with a
gmean or mean summary row.  :func:`grid_experiment` builds such a table
from one ``run_cells`` call; :func:`grid_values` is its simulation half,
for studies that summarise the columns into rows of their own (one row
per technology node or lifetime point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .. import envconfig
from ..config import (
    DisturbanceConfig,
    FaultConfig,
    MemoryConfig,
    SchemeConfig,
    SystemConfig,
)
from ..core.results import SimulationResult, geometric_mean
from ..perf import engine
from ..perf.cellspec import CellSpec
from ..stats.counters import Counters
from ..stats.report import format_table

DEFAULT_SEED = 1


def trace_length(default: int = 1200) -> int:
    """Per-core trace length, overridable via ``REPRO_TRACE_LEN``."""
    return envconfig.trace_length(default)


def core_count(default: int = 8) -> int:
    """Core count, overridable via ``REPRO_CORES``."""
    return envconfig.core_count(default)


def cell(
    bench: str,
    scheme: SchemeConfig,
    length: Optional[int] = None,
    cores: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    write_queue_entries: Optional[int] = None,
    lifetime_fraction: float = 0.0,
    disturbance: Optional[DisturbanceConfig] = None,
    faults: Optional[FaultConfig] = None,
) -> CellSpec:
    """Describe one (workload, scheme) cell with the standard configuration."""
    length = trace_length() if length is None else length
    cores = core_count() if cores is None else cores
    memory = MemoryConfig() if write_queue_entries is None else MemoryConfig(
        write_queue_entries=write_queue_entries
    )
    config = SystemConfig(
        cores=cores,
        memory=memory,
        disturbance=disturbance if disturbance is not None else DisturbanceConfig(),
        scheme=scheme,
        faults=faults if faults is not None else FaultConfig(),
        seed=seed,
    )
    return CellSpec(
        bench=bench,
        length=length,
        config=config,
        lifetime_fraction=lifetime_fraction,
    )


def run_cells(specs: Sequence[CellSpec]) -> List[SimulationResult]:
    """Simulate a batch of cells through the perf engine (cached, parallel).

    Resolved through ``engine.get_runner()`` at call time so the sweep
    planner's :func:`repro.perf.engine.use_runner` context (and the
    CLI's ``--jobs`` configuration) applies to every experiment module.
    """
    return engine.get_runner().run_cells(list(specs))


class _PlanAborted(Exception):
    """Control flow: a planning pass stops a call at its first
    ``run_cells`` (the specs are recorded; nothing is simulated)."""


class _PlanningRunner:
    """Engine stub that records submitted specs instead of running them."""

    def __init__(self) -> None:
        self.specs: List[CellSpec] = []

    def run_cells(self, specs):
        self.specs.extend(specs)
        raise _PlanAborted


def first_batch(call: Callable[[], object]) -> List[CellSpec]:
    """The specs of ``call``'s first ``run_cells`` batch, simulating none.

    Runs ``call`` (spec-list construction is cheap) against a recording
    engine stub that aborts it at its first ``run_cells``.  A call that
    never reaches ``run_cells`` (an analytic experiment) or that raises
    contributes nothing: it runs normally, and any real error surfaces,
    when it is called for real.
    """
    recorder = _PlanningRunner()
    with engine.use_runner(recorder):
        try:
            call()
        except Exception:  # _PlanAborted, or an error the real call raises
            pass
    return recorder.specs


@dataclass
class ExperimentResult:
    """Uniform result bundle: a titled table plus named headline metrics."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        out = format_table(self.title, self.headers, self.rows)
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, the summary of counter-valued columns."""
    return sum(values) / len(values)


SUMMARIES: Dict[str, Callable[[Sequence[float]], float]] = {
    "gmean": geometric_mean,
    "mean": mean,
}


@dataclass(frozen=True, eq=False)
class Column:
    """One column of a bench x column grid.

    Each bench gets one cell running ``scheme`` with the ``options``
    given to :func:`cell` (``disturbance``, ``write_queue_entries``,
    ``lifetime_fraction``).  The column reads ``value(counters)`` of that
    cell when ``value`` is set, else the cell's speedup over the same
    bench's cell in column ``over``; a column with neither is a baseline
    and reads 1.0.  ``header`` is the table heading and ``key`` the
    metric the column's summary is stored under; ``None`` leaves the
    column out of the table or the metrics.  Columns compare by
    identity, so two columns running the same cell stay two cells.
    """

    header: Optional[str]
    key: Optional[str]
    scheme: SchemeConfig
    options: Mapping[str, object] = field(default_factory=dict)
    over: Optional["Column"] = None
    value: Optional[Callable[[Counters], float]] = None

    def read(self, cells: Mapping["Column", SimulationResult]) -> float:
        """This column's value from one bench's cells."""
        if self.value is not None:
            return self.value(cells[self].counters)
        return cells[self].speedup_over(cells[self.over or self])


def grid_values(
    benches: Sequence[str],
    columns: Sequence[Column],
    length: Optional[int] = None,
) -> List[List[float]]:
    """Each bench's value in each column, simulated in one ``run_cells`` call."""
    results = iter(run_cells([
        cell(bench, column.scheme, length=length, **column.options)
        for bench in benches
        for column in columns
    ]))
    rows = []
    for _bench in benches:
        cells = {column: next(results) for column in columns}
        rows.append([column.read(cells) for column in columns])
    return rows


def grid_experiment(
    title: str,
    benches: Sequence[str],
    columns: Sequence[Column],
    summary: str = "gmean",
    length: Optional[int] = None,
    notes: Sequence[str] = (),
) -> ExperimentResult:
    """A table of one row per bench plus a ``summary`` ("gmean" or "mean") row.

    Columns with a header are shown in their declared order; every column
    with a key stores its summary as a metric, also in declared order.
    """
    values = grid_values(benches, columns, length)
    summaries = [SUMMARIES[summary](column) for column in zip(*values)]
    shown = [i for i, column in enumerate(columns) if column.header is not None]
    result = ExperimentResult(
        title, ["workload"] + [columns[i].header for i in shown], notes=list(notes)
    )
    for label, row in zip([*benches, summary], values + [summaries]):
        result.rows.append([label] + [row[i] for i in shown])
    for column, value in zip(columns, summaries):
        if column.key is not None:
            result.metrics[column.key] = value
    return result
