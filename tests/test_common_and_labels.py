"""Tests for experiments.common plumbing and system scheme labels."""

from __future__ import annotations

import pytest

from repro.core import schemes
from repro.core.results import SimulationResult
from repro.core.system import SDPCMSystem
from repro.errors import ConfigError
from repro.experiments import figure5, figure16
from repro.experiments.common import (
    Column,
    ExperimentResult,
    cell,
    core_count,
    grid_experiment,
    trace_length,
)
from repro.perf import engine
from repro.stats.counters import Counters
from repro.traces import shm
from tests.conftest import small_config


class TestEnvKnobs:
    def test_trace_length_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_LEN", raising=False)
        assert trace_length(777) == 777

    def test_trace_length_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "4242")
        assert trace_length() == 4242

    def test_core_count_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "2")
        assert core_count() == 2

    def test_explicit_zero_length_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "300")
        assert cell("mcf", schemes.baseline(), length=0).length == 0
        assert cell("mcf", schemes.baseline()).length == 300

    def test_explicit_zero_cores_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "2")
        assert cell("mcf", schemes.baseline()).config.cores == 2
        with pytest.raises(ConfigError, match="cores must be positive"):
            cell("mcf", schemes.baseline(), cores=0)


class TestWorkloadCache:
    def test_distinct_keys_distinct_objects(self):
        a = shm.workload_for("wrf", length=50, cores=1, seed=9)
        for other in [dict(length=60, cores=1, seed=9),
                      dict(length=50, cores=2, seed=9),
                      dict(length=50, cores=1, seed=10)]:
            assert shm.workload_for("wrf", **other) is not a
        assert shm.workload_for("mcf", length=50, cores=1, seed=9) is not a


class TestExperimentResult:
    def test_render_includes_notes(self):
        result = ExperimentResult("t", ["a"], rows=[["x"]], notes=["hello"])
        assert "note: hello" in result.render()


#: Stub CPIs: bench -> factor, scheme -> CPI at factor 1.
BENCH_FACTOR = {"mcf": 1.0, "lbm": 4.0}
SCHEME_CPI = {schemes.baseline(): 2.0, schemes.lazyc(): 1.0, schemes.din(): 0.5}


class StubRunner:
    """Answers every cell without simulating: CPI from the bench and the
    scheme, and ``corrections`` per demand write equal to the CPI."""

    def __init__(self):
        self.calls = []

    def run_cells(self, specs):
        self.calls.append(list(specs))
        return [self._result(spec) for spec in specs]

    @staticmethod
    def _result(spec):
        cpi = BENCH_FACTOR.get(spec.bench, 1.0) * SCHEME_CPI.get(
            spec.config.scheme, 2.0
        )
        return SimulationResult(
            workload=spec.bench, scheme="stub", cycles=0, instructions=1,
            per_core_cpi=[cpi],
            counters=Counters(demand_writes=10, corrections=int(cpi * 10)),
            read_stall_cycles=0, wq_stall_cycles=0,
        )


@pytest.fixture
def stub():
    runner = StubRunner()
    with engine.use_runner(runner):
        yield runner


class TestGrid:
    def test_speedups_gmean_and_metric_order(self, stub):
        base = Column("base", "base", schemes.baseline())
        din = Column("DIN", "din", schemes.din(), over=base)
        columns = [
            din,
            Column(None, "lazyc", schemes.lazyc(), over=base),
            base,
            Column(None, None, schemes.din(), over=din),
        ]
        result = grid_experiment("t", ["mcf", "lbm"], columns, length=5)
        assert result.headers == ["workload", "DIN", "base"]
        assert result.rows == [["mcf", 4.0, 1.0], ["lbm", 4.0, 1.0],
                               ["gmean", 4.0, 1.0]]
        assert list(result.metrics) == ["din", "lazyc", "base"]
        assert result.metrics["lazyc"] == 2.0
        assert len(stub.calls) == 1
        # Two columns running the same scheme stay two cells per bench.
        assert len(stub.calls[0]) == 2 * len(columns)
        assert {spec.length for spec in stub.calls[0]} == {5}

    def test_counter_columns_take_the_mean(self, stub):
        columns = [
            Column(name, name, scheme, value=lambda c: c.corrections_per_write)
            for name, scheme in (("base", schemes.baseline()),
                                 ("lazyc", schemes.lazyc()))
        ]
        result = grid_experiment("t", ["mcf", "lbm"], columns, summary="mean",
                                 notes=["n"])
        assert result.rows[-1] == ["mean", 5.0, 2.5]
        assert result.metrics == {"base": 5.0, "lazyc": 2.5}
        assert result.notes == ["n"]
        assert len(stub.calls) == 1

    def test_cell_options_reach_the_spec(self, stub):
        column = Column("q", None, schemes.baseline(), {"write_queue_entries": 16})
        grid_experiment("t", ["mcf"], [column])
        (spec,) = stub.calls[0]
        assert spec.config.memory.write_queue_entries == 16

    def test_trailing_row_follows_the_summary(self, stub):
        result = figure16.run_experiment(workloads=("mcf", "lbm"),
                                         ratios=((1, 2), (7, 8)))
        assert [row[0] for row in result.rows] == [
            "mcf", "lbm", "gmean", "usable capacity"
        ]
        assert result.rows[-1][1:] == [0.5, 0.875]
        assert list(result.metrics) == ["1:2", "7:8"]
        assert len(stub.calls) == 1 and len(stub.calls[0]) == 2 * 3


class TestSchemeLabels:
    @pytest.mark.parametrize(
        "factory, fragment",
        [
            (schemes.wp_lazyc, "WP"),
            (schemes.write_pausing, "WP"),
            (schemes.eager, "eager"),
            (schemes.wc_lazyc, "WC"),
            (schemes.lazyc_dense_ecp, "denseECP"),
        ],
    )
    def test_labels_mention_components(self, factory, fragment):
        label = SDPCMSystem(small_config(factory()))._scheme_label()
        assert fragment in label

    def test_nm_label(self):
        label = SDPCMSystem(small_config(schemes.nm_alloc(1, 2)))._scheme_label()
        assert "(1:2)" in label

    def test_unprotected_label_differs_from_basic_vnc(self):
        """Figure 5's unverified 4F^2 reference is not basic VnC."""
        def label(scheme):
            return SDPCMSystem(small_config(scheme))._scheme_label()

        assert label(figure5.unprotected()) == "unprotected"
        assert label(schemes.baseline()) == "baseline-VnC"
