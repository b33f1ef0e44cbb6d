"""Tests for the write-pausing policy and the design-choice ablations."""

from __future__ import annotations

import pytest

from repro.config import SchemeConfig
from repro.core import schemes
from repro.core.engine import EventLoop
from repro.core.system import SDPCMSystem, simulate
from repro.errors import ConfigError
from repro.mem.controller import MemoryController
from repro.config import MemoryConfig, TimingConfig
from repro.stats.counters import Counters
from tests.conftest import small_config, small_workload
from tests.test_mem_controller import StubExecutor, read, write


def make_controller(scheme, wq=8):
    loop = EventLoop()
    counters = Counters()
    executor = StubExecutor()
    ctrl = MemoryController(
        memory=MemoryConfig(write_queue_entries=wq),
        timing=TimingConfig(),
        scheme=scheme,
        scheduler=loop,
        executor=executor,
        counters=counters,
    )
    return loop, ctrl, executor, counters


class TestPausingController:
    def test_read_pauses_write(self):
        loop, ctrl, ex, counters = make_controller(
            SchemeConfig(read_priority="pause")
        )
        ctrl.try_enqueue_write(write(row=10))  # eager write starts at t=0
        done = []
        ctrl.enqueue_read(read(row=3), 0, done.append)
        loop.run()
        assert counters.writes_paused == 1
        assert done[0] == 400           # the read went straight through
        assert len(ex.commits) == 1     # write resumed and committed
        assert ex.cancels == []         # nothing re-pulsed

    def test_resume_pays_only_remaining(self):
        loop, ctrl, ex, counters = make_controller(
            SchemeConfig(read_priority="pause")
        )
        ctrl.try_enqueue_write(write(row=10))       # 800-cycle write at t=0
        loop.schedule(300, lambda t: ctrl.enqueue_read(read(row=3), 0, lambda x: None))
        loop.run()
        # 300 done + 400 read + 500 remaining = commit by 1200; the bank
        # was genuinely busy writing for exactly the op's 800 cycles.
        assert counters.writes_paused == 1
        assert counters.total_write_busy_cycles == 800

    def test_final_round_not_paused(self):
        loop, ctrl, ex, counters = make_controller(
            SchemeConfig(read_priority="pause")
        )
        ctrl.try_enqueue_write(write(row=10))
        done = []
        loop.schedule(500, lambda t: ctrl.enqueue_read(read(row=3), 0, done.append))
        loop.run()
        # Remaining 300 < one RESET round (400): the write finishes first.
        assert counters.writes_paused == 0
        assert done[0] == 1200

    def test_pause_count_bounded(self):
        """A write is paused at most MAX_PAUSES_PER_WRITE times even under
        a continuous read stream (starvation guard)."""
        from repro.mem.controller import MAX_PAUSES_PER_WRITE

        loop, ctrl, ex, counters = make_controller(
            SchemeConfig(read_priority="pause")
        )
        ctrl.try_enqueue_write(write(row=10))
        # A read arrives every 100 cycles, forever trying to pre-empt.
        for i in range(20):
            loop.schedule(i * 100 + 10,
                          lambda t: ctrl.enqueue_read(read(row=3), 0, lambda x: None))
        loop.run()
        assert len(ex.commits) == 1
        assert counters.writes_paused <= MAX_PAUSES_PER_WRITE

    def test_unknown_read_priority_rejected(self):
        allowed = "'drain', 'eager', 'cancel', 'pause'"
        with pytest.raises(ConfigError, match=allowed):
            SchemeConfig(read_priority="pause+cancel")


class TestPausingSystem:
    def test_wp_pauses_and_stays_consistent(self):
        wl = small_workload("mcf", length=400)
        res = simulate(small_config(schemes.by_name("WP+LazyC")), wl)
        assert res.counters.writes_paused > 0
        assert res.counters.writes_cancelled == 0

    def test_wp_no_extra_disturbance(self):
        """Pausing never re-pulses cells, so unlike cancellation it adds
        zero partial-write disturbance."""
        wl = small_workload("mcf", length=400)
        wp = simulate(small_config(schemes.by_name("WP")), wl)
        wc = simulate(small_config(schemes.by_name("WC")), wl)
        assert wp.counters.partial_write_errors == 0
        assert wc.counters.partial_write_errors >= 0

    def test_wp_beats_bursty_baseline(self):
        wl = small_workload("mcf", length=400)
        base = simulate(small_config(schemes.baseline()), wl)
        wp = simulate(small_config(schemes.by_name("WP")), wl)
        assert wp.cpi <= base.cpi * 1.02


class TestDenseECPAblation:
    def test_dense_ecp_slower_than_low_density(self):
        wl = small_workload("mcf", length=400)
        low = simulate(small_config(schemes.lazyc()), wl)
        dense = simulate(small_config(schemes.lazyc_dense_ecp()), wl)
        assert dense.cpi > low.cpi

    def test_dense_ecp_same_reliability(self):
        from tests.test_integration_invariants import audit_system

        cfg = small_config(schemes.lazyc_dense_ecp())
        system = SDPCMSystem(cfg)
        system.run(small_workload("mcf", cores=2, length=300))
        audit = audit_system(system)
        assert audit["uncovered_lines"] == 0
