"""Tests for memory-controller scheduling with a stub write executor."""

from __future__ import annotations

from types import SimpleNamespace
from typing import List

import pytest

from repro.config import MemoryConfig, SchemeConfig, TimingConfig
from repro.core.engine import EventLoop
from repro.mem.controller import FORWARD_READ_CYCLES, MemoryController
from repro.mem.bank import InFlightOp
from repro.mem.request import PrereadSlot, RequestKind, WriteEntry
from repro.pcm.array import LineAddress
from repro.stats.counters import Counters


class StubExecutor:
    """Fixed-latency write executor recording commit/cancel calls."""

    def __init__(self, latency=800, slots_per_write=2):
        self.latency = latency
        self.slots_per_write = slots_per_write
        self.commits: List[LineAddress] = []
        self.cancels: List[float] = []
        self.baselines: List[PrereadSlot] = []

    def preread_slots(self, entry):
        bank, row, line = entry.addr
        return [
            PrereadSlot(addr=(bank, row + d, line)) for d in (1, 2)
        ][: self.slots_per_write]

    def execute(self, entry, now):
        return SimpleNamespace(latency=self.latency)

    def _commit(self, entry, plan):
        self.commits.append(entry.addr)

    def _cancel(self, entry, plan, progress):
        self.cancels.append(progress)

    def capture_baseline(self, slot):
        self.baselines.append(slot)


def make_controller(scheme=None, wq=4, executor=None):
    loop = EventLoop()
    counters = Counters()
    executor = executor or StubExecutor()
    ctrl = MemoryController(
        memory=MemoryConfig(write_queue_entries=wq),
        timing=TimingConfig(),
        scheme=scheme or SchemeConfig(),
        scheduler=loop,
        executor=executor,
        counters=counters,
    )
    return loop, ctrl, executor, counters


def read(bank=0, row=10, line=0):
    return (bank, row, line)


def write(bank=0, row=10, line=0, core=0):
    return WriteEntry(core, (bank, row, line))


class TestReads:
    def test_read_latency(self):
        loop, ctrl, _, _ = make_controller()
        done = []
        ctrl.enqueue_read(read(), done.append)
        loop.run()
        assert done == [400]

    def test_reads_fifo_per_bank(self):
        loop, ctrl, _, _ = make_controller()
        done = []
        ctrl.enqueue_read(read(row=1), lambda t: done.append(("a", t)))
        ctrl.enqueue_read(read(row=2), lambda t: done.append(("b", t)))
        loop.run()
        assert done == [("a", 400), ("b", 800)]

    def test_reads_to_different_banks_parallel(self):
        loop, ctrl, _, _ = make_controller()
        done = []
        ctrl.enqueue_read(read(bank=0), lambda t: done.append(t))
        ctrl.enqueue_read(read(bank=1), lambda t: done.append(t))
        loop.run()
        assert done == [400, 400]

    def test_read_forwarded_from_write_queue(self):
        loop, ctrl, _, counters = make_controller()
        assert ctrl.try_enqueue_write(write(row=10))
        done = []
        ctrl.enqueue_read(read(row=10), done.append)
        loop.run()
        assert done[0] == FORWARD_READ_CYCLES
        assert counters.wq_forwarded_reads == 1


class TestWrites:
    def test_writes_buffered_until_full(self):
        loop, ctrl, ex, counters = make_controller(wq=4)
        for i in range(3):
            assert ctrl.try_enqueue_write(write(row=10 + i))
        loop.run()
        assert ex.commits == []  # below high-water: nothing drained
        assert ctrl.try_enqueue_write(write(row=20))
        loop.run()
        assert len(ex.commits) >= 2  # drain to low water (2 of 4)
        assert counters.drains == 1

    def test_full_queue_rejects(self):
        loop, ctrl, _, counters = make_controller(wq=2)
        # Occupy the bank with a read so the drain cannot start yet.
        ctrl.enqueue_read(read(row=9), lambda t: None)
        assert ctrl.try_enqueue_write(write(row=1))
        assert ctrl.try_enqueue_write(write(row=2))
        # Queue is now full and the bank is busy; a third write is rejected.
        assert not ctrl.try_enqueue_write(write(row=3))
        assert counters.wq_full_stalls == 1

    def test_space_waiter_woken(self):
        loop, ctrl, _, _ = make_controller(wq=2)
        # Bank busy with a read so the queue can genuinely fill.
        ctrl.enqueue_read(read(row=9), lambda t: None)
        ctrl.try_enqueue_write(write(row=1))
        ctrl.try_enqueue_write(write(row=2))
        assert not ctrl.try_enqueue_write(write(row=3))
        woken = []
        ctrl.wait_for_space(0, woken.append)
        loop.run()
        assert woken  # drain freed space

    def test_drain_blocks_reads(self):
        loop, ctrl, ex, _ = make_controller(wq=2)
        ctrl.try_enqueue_write(write(row=1))
        ctrl.try_enqueue_write(write(row=2))  # triggers drain (800 each)
        done = []
        ctrl.enqueue_read(read(row=5), done.append)
        loop.run()
        # Read waits for at least one 800-cycle write before its 400 read.
        assert done[0] >= 1200

    def test_quiesce_flushes(self):
        loop, ctrl, ex, _ = make_controller(wq=8)
        ctrl.try_enqueue_write(write(row=1))
        ctrl.try_enqueue_write(write(row=2))
        loop.run()
        assert ex.commits == []
        assert ctrl.quiesce()
        loop.run()
        assert len(ex.commits) == 2
        assert not ctrl.quiesce()


class TestPreread:
    def test_idle_bank_issues_prereads(self):
        scheme = SchemeConfig(preread=True)
        loop, ctrl, ex, counters = make_controller(scheme=scheme, wq=8)
        ctrl.try_enqueue_write(write(row=10))
        loop.run()
        assert counters.prereads_issued == 2
        assert len(ex.baselines) == 2

    def test_prereads_deprioritised_vs_reads(self):
        scheme = SchemeConfig(preread=True)
        loop, ctrl, ex, counters = make_controller(scheme=scheme, wq=8)
        done = []
        # With a demand read pending, the idle bank serves it before any
        # preread of the queued write.
        ctrl.enqueue_read(read(row=3), done.append)
        ctrl.try_enqueue_write(write(row=10))
        loop.run()
        assert done[0] == 400  # demand read went first
        assert counters.prereads_issued == 2  # prereads follow afterwards

    def test_queue_forwarding_marks_slot(self):
        scheme = SchemeConfig(preread=True)
        loop, ctrl, ex, counters = make_controller(scheme=scheme, wq=8)
        ctrl.try_enqueue_write(write(row=11))   # will be slot target of next
        ctrl.try_enqueue_write(write(row=10))   # slots rows 11, 12
        assert counters.preread_forwards == 1


class TestWriteCancellation:
    def test_read_cancels_inflight_write(self):
        scheme = SchemeConfig(write_cancellation=True)
        loop, ctrl, ex, counters = make_controller(scheme=scheme, wq=8)
        ctrl.try_enqueue_write(write(row=10))
        # Eager write starts immediately; read arrives at t=0 mid-op.
        done = []
        ctrl.enqueue_read(read(row=3), done.append)
        loop.run()
        assert counters.writes_cancelled == 1
        assert ex.cancels and 0.0 <= ex.cancels[0] <= 1.0
        assert done[0] == 400
        # Cancelled write re-executed afterwards.
        assert len(ex.commits) == 1

    def test_nearly_done_write_not_cancelled(self):
        scheme = SchemeConfig(write_cancellation=True)
        loop, ctrl, ex, counters = make_controller(scheme=scheme, wq=8)
        ctrl.try_enqueue_write(write(row=10))
        done = []
        # Schedule the read to arrive at 90% progress.
        loop.schedule(720, lambda t: ctrl.enqueue_read(read(row=3), done.append))
        loop.run()
        assert counters.writes_cancelled == 0
        assert done[0] == 1200  # waited for the write

    def test_eager_writes_without_drain(self):
        scheme = SchemeConfig(write_cancellation=True)
        loop, ctrl, ex, _ = make_controller(scheme=scheme, wq=8)
        ctrl.try_enqueue_write(write(row=10))
        loop.run()
        assert len(ex.commits) == 1  # written eagerly, queue never filled


def reference_kick(scheme, busy, draining, write_q, read_q):
    """The bank-scheduling cascade as first written, branch for branch."""
    if busy:
        return None
    if draining and write_q:
        return "write"
    elif read_q and not draining:
        return "read"
    elif (
        (
            scheme.write_cancellation
            or scheme.write_pausing
            or scheme.eager_writes
        )
        and write_q
        and not read_q
    ):
        return "write"
    elif scheme.preread and not draining:
        return "preread"
    return None


#: Every way a scheme can make writes eager (or not).
EAGER_FLAGS = (None, "eager_writes", "write_cancellation", "write_pausing")


class TestKickTable:
    """``_kick`` picks the same action as the reference cascade for every
    combination of bank state and scheme flags."""

    @pytest.mark.parametrize("eager", EAGER_FLAGS)
    @pytest.mark.parametrize("preread", [False, True])
    @pytest.mark.parametrize("read_q", [False, True])
    @pytest.mark.parametrize("write_q", [False, True])
    @pytest.mark.parametrize("draining", [False, True])
    @pytest.mark.parametrize("busy", [False, True])
    def test_action_matches_reference(
        self, busy, draining, write_q, read_q, preread, eager
    ):
        flags = {"preread": preread}
        if eager is not None:
            flags[eager] = True
        scheme = SchemeConfig(**flags)
        _, ctrl, _, _ = make_controller(scheme)
        taken = []
        ctrl._start_write = lambda bank, now: taken.append("write")
        ctrl._start_read = lambda bank, now: taken.append("read")
        ctrl._start_preread = lambda bank, now: taken.append("preread")
        bank = ctrl.banks[0]
        bank.draining = draining
        if busy:
            bank.current = InFlightOp(RequestKind.READ, 0, 400)
        if write_q:
            bank.wq_append(write(row=20))
        if read_q:
            bank.read_q.append((lambda t: None, ()))
        ctrl._kick(bank)
        expected = reference_kick(scheme, busy, draining, write_q, read_q)
        assert taken == ([] if expected is None else [expected])
