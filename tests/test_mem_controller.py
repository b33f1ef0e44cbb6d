"""Tests for memory-controller scheduling with a stub write executor."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace
from typing import List

import pytest

from repro.alloc.page_table import PageTable
from repro.config import MemoryConfig, SchemeConfig, SystemConfig, TimingConfig
from repro.core import schemes
from repro.core.engine import Engine, EventLoop
from repro.mem.address import AddressMapper
from repro.mem.controller import FORWARD_READ_CYCLES, MemoryController
from repro.mem.bank import InFlightOp
from repro.mem.request import PrereadSlot, RequestKind, WriteEntry
from repro.pcm.array import LineAddress
from repro.stats.counters import Counters
from repro.traces.profiles import profile
from repro.traces.workload import Workload
from tests.conftest import make_trace


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
        ctrl.enqueue_read(read(), 0, done.append)
        loop.run()
        assert done == [400]

    def test_reads_fifo_per_bank(self):
        loop, ctrl, _, _ = make_controller()
        done = []
        ctrl.enqueue_read(read(row=1), 0, lambda t: done.append(("a", t)))
        ctrl.enqueue_read(read(row=2), 0, lambda t: done.append(("b", t)))
        loop.run()
        assert done == [("a", 400), ("b", 800)]

    def test_reads_to_different_banks_parallel(self):
        loop, ctrl, _, _ = make_controller()
        done = []
        ctrl.enqueue_read(read(bank=0), 0, lambda t: done.append(t))
        ctrl.enqueue_read(read(bank=1), 0, lambda t: done.append(t))
        loop.run()
        assert done == [400, 400]

    def test_read_forwarded_from_write_queue(self):
        loop, ctrl, _, counters = make_controller()
        assert ctrl.try_enqueue_write(write(row=10))
        done = []
        ctrl.enqueue_read(read(row=10), 0, done.append)
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
        ctrl.enqueue_read(read(row=9), 0, lambda t: None)
        assert ctrl.try_enqueue_write(write(row=1))
        assert ctrl.try_enqueue_write(write(row=2))
        # Queue is now full and the bank is busy; a third write is rejected.
        assert not ctrl.try_enqueue_write(write(row=3))
        assert counters.wq_full_stalls == 1

    def test_space_waiter_woken(self):
        loop, ctrl, _, _ = make_controller(wq=2)
        # Bank busy with a read so the queue can genuinely fill.
        ctrl.enqueue_read(read(row=9), 0, lambda t: None)
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
        ctrl.enqueue_read(read(row=5), 0, done.append)
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
        ctrl.enqueue_read(read(row=3), 0, done.append)
        ctrl.try_enqueue_write(write(row=10))
        loop.run()
        assert done[0] == 400  # demand read went first
        assert counters.prereads_issued == 2  # prereads follow afterwards

    def test_cursor_tracks_nothing_without_preread(self):
        """Without PreRead nothing drains the cursor, so no entry enters
        it: it would hold every write of the run."""
        loop, ctrl, _, _ = make_controller(wq=8)
        for row in range(4):
            ctrl.try_enqueue_write(write(row=10 * row))
        ctrl.quiesce()
        loop.run()
        assert all(not bank.preread_cursor for bank in ctrl.banks)

    def test_queue_forwarding_marks_slot(self):
        scheme = SchemeConfig(preread=True)
        loop, ctrl, ex, counters = make_controller(scheme=scheme, wq=8)
        ctrl.try_enqueue_write(write(row=11))   # will be slot target of next
        ctrl.try_enqueue_write(write(row=10))   # slots rows 11, 12
        assert counters.preread_forwards == 1


class TestWriteCancellation:
    def test_read_cancels_inflight_write(self):
        scheme = SchemeConfig(read_priority="cancel")
        loop, ctrl, ex, counters = make_controller(scheme=scheme, wq=8)
        ctrl.try_enqueue_write(write(row=10))
        # Eager write starts immediately; read arrives at t=0 mid-op.
        done = []
        ctrl.enqueue_read(read(row=3), 0, done.append)
        loop.run()
        assert counters.writes_cancelled == 1
        assert ex.cancels and 0.0 <= ex.cancels[0] <= 1.0
        assert done[0] == 400
        # Cancelled write re-executed afterwards.
        assert len(ex.commits) == 1

    def test_nearly_done_write_not_cancelled(self):
        scheme = SchemeConfig(read_priority="cancel")
        loop, ctrl, ex, counters = make_controller(scheme=scheme, wq=8)
        ctrl.try_enqueue_write(write(row=10))
        done = []
        # Schedule the read to arrive at 90% progress.
        loop.schedule(720, lambda t: ctrl.enqueue_read(read(row=3), 0, done.append))
        loop.run()
        assert counters.writes_cancelled == 0
        assert done[0] == 1200  # waited for the write

    def test_eager_writes_without_drain(self):
        scheme = SchemeConfig(read_priority="cancel")
        loop, ctrl, ex, _ = make_controller(scheme=scheme, wq=8)
        ctrl.try_enqueue_write(write(row=10))
        loop.run()
        assert len(ex.commits) == 1  # written eagerly, queue never filled


def reference_kick(scheme, busy, draining, write_q, read_q, preread_owed):
    """The bank-scheduling cascade as first written, branch for branch,
    except that PreRead is tried only while the bank's PreRead cursor
    holds an entry (a write owing a pre-read)."""
    if busy:
        return None
    if draining and write_q:
        return "write"
    elif read_q and not draining:
        return "read"
    elif scheme.read_priority != "drain" and write_q and not read_q:
        return "write"
    elif scheme.preread and not draining and preread_owed:
        return "preread"
    return None


#: Every read priority, by the ``repro.core.schemes`` factory that sets it
#: on basic VnC (``None``: the default bursty drain).
EAGER_SCHEMES = (None, "eager", "write_cancellation", "write_pausing")


class TestKickTable:
    """``_kick`` picks the same action as the reference cascade for every
    combination of bank state, PreRead and read priority, and
    ``_finish_read`` calls it exactly when that action is not idling.

    ``preread_owed``: a write still owes a pre-read, so the bank's PreRead
    cursor holds it.  With ``write_q`` that write is the queued one; with
    no write queued it is a write that already left the queue, which the
    cursor drops lazily (``_start_preread`` then finds nothing to do).
    """

    @pytest.mark.parametrize("preread_owed", [False, True])
    @pytest.mark.parametrize("eager", EAGER_SCHEMES)
    @pytest.mark.parametrize("preread", [False, True])
    @pytest.mark.parametrize("read_q", [False, True])
    @pytest.mark.parametrize("write_q", [False, True])
    @pytest.mark.parametrize("draining", [False, True])
    @pytest.mark.parametrize("busy", [False, True])
    def test_action_matches_reference(
        self, busy, draining, write_q, read_q, preread, eager, preread_owed
    ):
        scheme = SchemeConfig() if eager is None else getattr(schemes, eager)()
        scheme = replace(scheme, preread=preread)
        _, ctrl, _, _ = make_controller(scheme)
        taken = []
        ctrl._start_write = lambda bank, now: taken.append("write")
        ctrl._start_read = lambda bank, now: taken.append("read")
        ctrl._start_preread = lambda bank, now: taken.append("preread")
        bank = ctrl.banks[0]
        bank.draining = draining
        if busy:
            bank.current = InFlightOp(RequestKind.READ, 0, 400)
        if preread_owed:
            owing = write(row=30)
            owing.slots = [PrereadSlot(addr=(0, 31, 0))]
            bank.wq_append(owing)
            # Only a PreRead scheme's banks track the cursor.
            assert bool(bank.preread_cursor) == preread
            if not write_q:
                bank.wq_popleft()  # in flight: stale in the cursor
        if write_q and not preread_owed:
            bank.wq_append(write(row=20))
        if read_q:
            bank.read_q.append((0, lambda t: None, ()))
        ctrl._kick(bank)
        expected = reference_kick(
            scheme, busy, draining, write_q, read_q, preread_owed
        )
        assert taken == ([] if expected is None else [expected])
        # A read's completion frees the bank and calls ``_kick`` exactly
        # when ``_kick`` could start an op on the now idle bank.
        kicked = []
        ctrl._kick = kicked.append
        ctrl._finish_read(bank, 0, lambda t: None, (), 0)
        idle = reference_kick(scheme, False, draining, write_q, read_q,
                              preread_owed)
        assert kicked == ([] if idle is None else [bank])


class TestReadPath:
    """Where a demand read goes on arrival, and when it completes."""

    def test_read_to_idle_bank_starts_at_once(self):
        loop, ctrl, _, counters = make_controller()
        done = []
        ctrl.enqueue_read(read(row=3), 0, done.append)
        bank = ctrl.banks[0]
        assert bank.current is not None
        assert bank.current.kind is RequestKind.READ
        assert not bank.read_q
        assert len(loop.heap) == 1 and loop.heap[0][0] == 400
        loop.run()
        assert done == [400]
        assert bank.current is None
        ctrl.publish_counters(1)
        assert counters.total_read_busy_cycles == 400

    def test_reads_to_a_busy_bank_queue_fifo(self):
        loop, ctrl, _, _ = make_controller()
        done = []
        for name in "abc":
            ctrl.enqueue_read(read(row=ord(name)), 0,
                              lambda t, name=name: done.append((name, t)))
        bank = ctrl.banks[0]
        assert bank.current.kind is RequestKind.READ
        assert len(bank.read_q) == 2
        loop.run()
        assert done == [("a", 400), ("b", 800), ("c", 1200)]

    def test_reads_during_a_drain_queue_fifo(self):
        loop, ctrl, _, _ = make_controller(wq=2)
        ctrl.try_enqueue_write(write(row=1))
        ctrl.try_enqueue_write(write(row=2))  # full: drain starts a write
        bank = ctrl.banks[0]
        assert bank.draining and bank.current.kind is RequestKind.WRITE
        done = []
        ctrl.enqueue_read(read(row=5), 0, lambda t: done.append(("a", t)))
        ctrl.enqueue_read(read(row=6), 0, lambda t: done.append(("b", t)))
        assert len(bank.read_q) == 2
        loop.run()
        # The drain runs to the low-water mark (one 800-cycle write),
        # then the reads go in arrival order.
        assert done == [("a", 1200), ("b", 1600)]

    def test_read_to_a_draining_idle_bank_waits(self):
        """A draining bank queues a read even while no op holds it."""
        loop, ctrl, _, _ = make_controller()
        bank = ctrl.banks[0]
        bank.draining = True
        done = []
        ctrl.enqueue_read(read(), 0, done.append)
        assert bank.current is None and len(bank.read_q) == 1
        bank.draining = False
        ctrl._kick(bank)
        loop.run()
        assert done == [400]

    def test_forwarded_read_skips_a_busy_bank(self):
        loop, ctrl, _, counters = make_controller(wq=2)
        ctrl.try_enqueue_write(write(row=1))
        ctrl.try_enqueue_write(write(row=2))  # drain: the bank is busy
        done = []
        loop.schedule(100, lambda t: ctrl.enqueue_read(read(row=2), 0, done.append))
        loop.run()
        assert done == [100 + FORWARD_READ_CYCLES]
        assert counters.wq_forwarded_reads == 1
        ctrl.publish_counters(1)
        assert counters.total_read_busy_cycles == 0

    def test_reads_alone_never_try_preread(self):
        loop, ctrl, _, _ = make_controller(SchemeConfig(preread=True))
        tried = []
        ctrl._start_preread = lambda bank, now: tried.append(now)
        for row in range(4):
            ctrl.enqueue_read(read(row=row), 0, lambda t: None)
        loop.run()
        assert tried == []

    def test_finished_read_kicks_a_queued_write(self):
        """After a read, a bank with a queued write still owing a
        pre-read goes on to PreRead."""
        loop, ctrl, ex, counters = make_controller(SchemeConfig(preread=True))
        ctrl.enqueue_read(read(row=3), 0, lambda t: None)
        ctrl.try_enqueue_write(write(row=10))
        loop.run()
        assert counters.prereads_issued == 2 and len(ex.baselines) == 2

    def test_continuation_fires_at_completion_plus_delay_before_the_kick(self):
        """A read's completion pushes its continuation after freeing the
        bank and before the kick that starts the bank's next op: at equal
        times the continuation runs first, while the next read still
        holds the bank."""
        loop, ctrl, _, _ = make_controller()
        bank = ctrl.banks[0]
        seen = []
        read_cycles = TimingConfig().read_cycles
        ctrl.enqueue_read(
            read(row=1), read_cycles,
            lambda tag, t: seen.append((tag, t, bank.current is not None)),
            ("a",),
        )
        ctrl.enqueue_read(read(row=2), 0, lambda t: seen.append(("b", t)))
        loop.run()
        assert seen == [("a", 2 * read_cycles, True), ("b", 2 * read_cycles)]

    def test_forwarded_read_continues_from_its_completion_event(self):
        """The ``+FORWARD_READ_CYCLES`` completion pushes the continuation,
        so an event scheduled for the same time before it runs first."""
        loop, ctrl, _, counters = make_controller()
        assert ctrl.try_enqueue_write(write(row=10))
        seen = []
        ctrl.enqueue_read(read(row=10), 30, lambda t: seen.append(("read", t)))
        loop.schedule(FORWARD_READ_CYCLES + 30,
                      lambda t: seen.append(("other", t)))
        loop.run()
        when = FORWARD_READ_CYCLES + 30
        assert seen == [("other", when), ("read", when)]
        assert counters.wq_forwarded_reads == 1

    @pytest.mark.parametrize("gaps", [(0,), (3,), (2, 5), (0, 0, 7)])
    def test_last_reference_read_sets_finish_time_and_stall(self, gaps):
        """A core whose last reference is a read finishes when that read
        returns, and every read's latency is charged as a stall."""
        loop, ctrl, _, counters = make_controller()
        trace = make_trace([(False, 64 * i, gap) for i, gap in enumerate(gaps)])
        frames = iter(range(1 << 10))
        engine = Engine(
            SystemConfig(cores=1),
            Workload("reads", [trace], [profile("wrf")]),
            ctrl, AddressMapper(),
            [PageTable((1, 1), lambda n, m: next(frames))], loop,
        )
        engine.run()
        core = engine.cores[0]
        timing = TimingConfig()
        delays = sum(int(gap * timing.base_cpi) for gap in gaps)
        assert core.finish_time == delays + len(gaps) * timing.read_cycles
        assert core.read_stall_cycles == len(gaps) * timing.read_cycles
        assert core.instructions == sum(gaps) + len(gaps)
        assert counters.demand_reads == len(gaps)

    @pytest.mark.parametrize("scheme, kicked", [
        (SchemeConfig(), False),
        (SchemeConfig(read_priority="eager"), True),
        (SchemeConfig(preread=True), True),
    ])
    def test_finished_read_kicks_only_when_the_bank_can_start(
        self, scheme, kicked
    ):
        """A read that finishes on a bank that neither drains nor writes
        eagerly, with no PreRead owed, skips ``_kick``: a queued write
        waits for the drain either way."""
        loop, ctrl, _, _ = make_controller(scheme, wq=8)
        ctrl.enqueue_read(read(row=3), 0, lambda t: None)
        assert ctrl.try_enqueue_write(write(row=20))
        calls = []
        kick = ctrl._kick
        ctrl._kick = lambda bank: calls.append(bank.index) or kick(bank)
        loop.run()
        if kicked:
            assert calls[0] == 0  # the read's completion started an op
        else:
            assert calls == [] and len(ctrl.banks[0].write_q) == 1
