"""One simulation cell and its content-addressed identity.

A *cell* is the unit of work the experiment figures are assembled from:
replaying one workload trace under one fully specified
:class:`~repro.config.SystemConfig`.  Two cells with equal specs produce
bit-identical :class:`~repro.core.results.SimulationResult`\\ s (the
simulator is seeded), which is what makes both the process pool and the
disk cache transparent to the figures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from ..config import SystemConfig
from ..core.results import SimulationResult

#: Bump whenever simulator behaviour changes in a way that alters results
#: for an unchanged spec — it invalidates every previously cached cell.
#: v2: ``SystemConfig`` grew the ``faults`` fault-injection block, so every
#: spec (fault-free ones included) hashes differently from v1.
CACHE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CellSpec:
    """Everything needed to (re)simulate one (workload, scheme) cell."""

    bench: str
    length: int
    config: SystemConfig
    lifetime_fraction: float = 0.0


def cache_key(spec: CellSpec) -> str:
    """Stable content hash of a cell spec.

    Every field of the nested config dataclasses participates, so changing
    any timing/memory/disturbance/scheme parameter — or the schema version
    above — yields a different key.
    """
    payload = {
        "version": CACHE_SCHEMA_VERSION,
        "bench": spec.bench,
        "length": spec.length,
        "lifetime_fraction": spec.lifetime_fraction,
        "config": asdict(spec.config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def simulate_cell(spec: CellSpec) -> SimulationResult:
    """Simulate one cell from scratch (also the process-pool worker).

    Records coarse per-cell phase timings (``trace_gen`` / ``simulate``)
    into the process-wide :data:`~repro.perf.profiler.PROFILER` — two
    timer pairs per cell, always on.

    Trace synthesis goes through the :mod:`repro.traces.shm` workload
    memo: figures replay the same ``(bench, length, cores, seed)`` trace
    under many schemes, so each distinct trace is synthesized once per
    process — and in pool workers the memo is pre-populated zero-copy
    from the parent's shared-memory trace plane.  Traces are immutable
    (the replay engine only reads them), so reuse is byte-identical to
    fresh synthesis.
    """
    from time import perf_counter

    from ..core.system import simulate
    from ..traces.shm import workload_for
    from .profiler import PROFILER

    t0 = perf_counter()
    workload = workload_for(
        spec.bench,
        length=spec.length,
        cores=spec.config.cores,
        seed=spec.config.seed,
    )
    t1 = perf_counter()
    result = simulate(
        spec.config, workload, lifetime_fraction=spec.lifetime_fraction
    )
    PROFILER.add("trace_gen", t1 - t0)
    PROFILER.add("simulate", perf_counter() - t1)
    return result
