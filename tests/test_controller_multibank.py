"""Controller scheduling across multiple banks (parallelism semantics)."""

from __future__ import annotations

import pytest

from repro.config import MemoryConfig, SchemeConfig, TimingConfig
from repro.core.engine import EventLoop
from repro.mem.controller import MemoryController
from repro.stats.counters import Counters
from tests.test_mem_controller import StubExecutor, read, write


def make(scheme=None, wq=8):
    loop = EventLoop()
    counters = Counters()
    executor = StubExecutor()
    ctrl = MemoryController(
        memory=MemoryConfig(write_queue_entries=wq),
        timing=TimingConfig(),
        scheme=scheme or SchemeConfig(),
        scheduler=loop,
        executor=executor,
        counters=counters,
    )
    return loop, ctrl, executor, counters


class TestBankParallelism:
    def test_sixteen_banks_fully_parallel(self):
        loop, ctrl, _, _ = make()
        done = []
        for bank in range(16):
            ctrl.enqueue_read(read(bank=bank), 0, done.append)
        loop.run()
        assert done == [400] * 16

    def test_drain_on_one_bank_leaves_others_free(self):
        loop, ctrl, ex, _ = make(wq=2)
        ctrl.try_enqueue_write(write(bank=3, row=1))
        ctrl.try_enqueue_write(write(bank=3, row=2))  # bank 3 drains
        done = []
        ctrl.enqueue_read(read(bank=4), 0, done.append)
        loop.run()
        assert done == [400]  # bank 4 unaffected by bank 3's drain

    def test_prereads_cross_banks(self):
        scheme = SchemeConfig(preread=True)
        loop, ctrl, ex, counters = make(scheme=scheme)
        # Writes into two banks; prereads run in both independently.
        ctrl.try_enqueue_write(write(bank=0, row=10))
        ctrl.try_enqueue_write(write(bank=1, row=10))
        loop.run()
        assert counters.prereads_issued == 4

    def test_wc_cancellation_is_per_bank(self):
        scheme = SchemeConfig(read_priority="cancel")
        loop, ctrl, ex, counters = make(scheme=scheme)
        ctrl.try_enqueue_write(write(bank=0, row=10))  # eager, in flight
        done = []
        # Read to a DIFFERENT bank must not cancel bank 0's write.
        ctrl.enqueue_read(read(bank=1), 0, done.append)
        loop.run()
        assert counters.writes_cancelled == 0
        assert len(ex.commits) == 1

    def test_forwarding_only_within_bank(self):
        loop, ctrl, _, counters = make()
        ctrl.try_enqueue_write(write(bank=0, row=10))
        done = []
        # Same (row, line) coordinates but a different bank: no forwarding.
        ctrl.enqueue_read(read(bank=1, row=10), 0, done.append)
        loop.run()
        assert counters.wq_forwarded_reads == 0
        assert done == [400]
