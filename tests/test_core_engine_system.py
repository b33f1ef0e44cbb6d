"""End-to-end tests of the event engine and the SDPCMSystem facade."""

from __future__ import annotations

import pytest

from repro.config import SchemeConfig, SystemConfig, TimingConfig
from repro.core import schemes
from repro.core.engine import EventLoop
from repro.core.results import geometric_mean
from repro.core.system import SDPCMSystem, simulate
from repro.errors import SimulationError
from tests.conftest import small_config, small_workload


class TestEventLoop:
    def test_ordering(self):
        loop = EventLoop()
        seen = []
        loop.schedule(10, lambda t: seen.append(("b", t)))
        loop.schedule(5, lambda t: seen.append(("a", t)))
        loop.schedule(10, lambda t: seen.append(("c", t)))
        loop.run()
        assert seen == [("a", 5), ("b", 10), ("c", 10)]

    def test_past_events_clamped_to_now(self):
        loop = EventLoop()
        seen = []

        def first(t):
            loop.schedule(t - 100, lambda t2: seen.append(t2))

        loop.schedule(50, first)
        loop.run()
        assert seen == [50]

    def test_nested_scheduling(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1, lambda t: loop.schedule(t + 1, seen.append))
        loop.run()
        assert seen == [2]


class TestSystemRuns:
    def test_basic_run_completes(self):
        cfg = small_config()
        res = SDPCMSystem(cfg).run(small_workload())
        assert res.cycles > 0
        assert res.instructions > 0
        assert res.cpi > 1.0
        assert len(res.per_core_cpi) == 2

    def test_single_shot(self):
        cfg = small_config()
        system = SDPCMSystem(cfg)
        wl = small_workload()
        system.run(wl)
        with pytest.raises(SimulationError):
            system.run(wl)

    def test_core_count_mismatch_rejected(self):
        cfg = small_config(cores=4)
        with pytest.raises(SimulationError):
            SDPCMSystem(cfg).run(small_workload(cores=2))

    def test_deterministic(self):
        wl = small_workload()
        a = simulate(small_config(), wl)
        b = simulate(small_config(), wl)
        assert a.cycles == b.cycles
        assert a.counters.bitline_errors == b.counters.bitline_errors

    def test_seed_changes_outcome(self):
        # Use a contention-heavy workload: the seed changes payloads and
        # disturbance sampling, which only perturbs *timing* when bank
        # occupancy actually collides with reads.
        wl = small_workload("mcf", length=400)
        a = simulate(small_config(), wl)
        b = simulate(small_config(seed=99), wl)
        assert (a.cycles, a.counters.bitline_errors) != (
            b.cycles,
            b.counters.bitline_errors,
        )

    def test_all_reads_and_writes_serviced(self):
        wl = small_workload(length=200)
        res = simulate(small_config(), wl)
        c = res.counters
        expected_writes = sum(int(t.is_write.sum()) for t in wl.traces)
        expected_reads = sum(len(t) for t in wl.traces) - expected_writes
        assert c.demand_writes == expected_writes
        assert c.demand_reads == expected_reads

    def test_scheme_labels(self):
        assert SDPCMSystem(
            small_config(schemes.din())
        )._scheme_label() == "DIN"
        assert SDPCMSystem(
            small_config(schemes.baseline())
        )._scheme_label() == "baseline-VnC"
        label = SDPCMSystem(small_config(schemes.all_combined()))._scheme_label()
        assert "LazyC" in label and "PreRead" in label and "(2:3)" in label


class TestSchemeBehaviour:
    def test_din_faster_than_baseline(self):
        wl = small_workload("mcf", length=400)
        din = simulate(small_config(schemes.din()), wl)
        base = simulate(small_config(schemes.baseline()), wl)
        assert din.cpi < base.cpi
        assert din.speedup_over(base) > 1.0

    def test_lazyc_between_baseline_and_din(self):
        wl = small_workload("mcf", length=400)
        din = simulate(small_config(schemes.din()), wl)
        lazy = simulate(small_config(schemes.lazyc()), wl)
        base = simulate(small_config(schemes.baseline()), wl)
        assert din.cpi <= lazy.cpi <= base.cpi

    def test_1_2_no_verifications(self):
        wl = small_workload("mcf", length=400)
        res = simulate(small_config(schemes.nm_alloc(1, 2)), wl)
        # Interior (1:2) strips need no VnC; only rare 64MB-edge strips do.
        assert res.counters.verifications <= res.counters.demand_writes * 0.05
        assert res.counters.corrections == 0 or res.counters.verifications > 0

    def test_2_3_halves_verifications(self):
        wl = small_workload("mcf", length=400)
        full = simulate(small_config(schemes.baseline()), wl)
        ratio = simulate(small_config(schemes.nm_alloc(2, 3)), wl)
        # (2:3) verifies ~1 adjacent line per write instead of ~2.
        assert ratio.counters.verifications < 0.7 * full.counters.verifications

    def test_preread_reduces_pre_write_reads(self):
        wl = small_workload("stream", length=400)
        base = simulate(small_config(schemes.baseline()), wl)
        pre = simulate(small_config(schemes.preread()), wl)
        assert pre.counters.preread_hits + pre.counters.preread_forwards > 0
        assert pre.counters.pre_write_reads < base.counters.pre_write_reads

    def test_wc_cancels_writes(self):
        wl = small_workload("mcf", length=400)
        wc = simulate(small_config(schemes.write_cancellation()), wl)
        assert wc.counters.writes_cancelled > 0

    def test_wordline_errors_counted_everywhere(self):
        wl = small_workload("mcf", length=300)
        for scheme in (schemes.din(), schemes.baseline()):
            res = simulate(small_config(scheme), wl)
            assert res.counters.wordline_vulnerable_cells > 0


class TestResults:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0]) == 2.0
        with pytest.raises(SimulationError):
            geometric_mean([])
        with pytest.raises(SimulationError):
            geometric_mean([0.0, 1.0])

    def test_speedup_metric(self):
        wl = small_workload(length=200)
        base = simulate(small_config(schemes.baseline()), wl)
        assert base.speedup_over(base) == pytest.approx(1.0)

    def test_speedup_of_an_empty_run_raises(self):
        """An empty run has CPI 0: a speedup against it (or of it) is a
        named error, not a ZeroDivisionError or a silent 0.0."""
        base = simulate(small_config(schemes.baseline()), small_workload(length=200))
        empty = simulate(small_config(schemes.lazyc()), small_workload(length=0))
        assert empty.cpi == 0
        for run, against in ((empty, base), (base, empty)):
            with pytest.raises(SimulationError, match="empty run: stream under"):
                run.speedup_over(against)

    def test_base_cpi_scales_runtime(self):
        wl = small_workload(length=200)
        slow = simulate(
            small_config(timing=TimingConfig(base_cpi=16.0)), wl
        )
        fast = simulate(
            small_config(timing=TimingConfig(base_cpi=1.0)), wl
        )
        assert slow.cycles > fast.cycles
