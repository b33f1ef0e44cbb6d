"""The bank write-queue line index and preread cursor must mirror the queue.

The controller's hot paths (read forwarding, preread same-queue
forwarding, preread target selection) now use derived structures instead
of scanning ``write_q``; these tests drive every mutation path — append,
drain pop, cancellation/pause re-insert — and assert the derived state
stays consistent with the queue contents.
"""

from __future__ import annotations

from collections import defaultdict
from types import SimpleNamespace

from repro.config import MemoryConfig, SchemeConfig, TimingConfig
from repro.core.engine import EventLoop
from repro.mem.bank import BankState
from repro.mem.controller import MemoryController
from repro.mem.request import PrereadSlot, WriteEntry
from repro.stats.counters import Counters


def assert_consistent(bank: BankState) -> None:
    """wq_index must hold exactly the queued entries, in queue order."""
    expected = defaultdict(list)
    for e in bank.write_q:
        assert e.in_write_q
        expected[e.addr].append(e)
    assert set(bank.wq_index) == set(expected)
    for key, entries in expected.items():
        assert bank.wq_index[key] == entries
    queued = set(id(e) for e in bank.write_q)
    for e in bank.preread_cursor:
        if e.in_write_q:
            assert id(e) in queued


def entry(row=5, line=0, slots=()):
    return WriteEntry(0, (0, row, line), slots=list(slots))


def slot(row):
    return PrereadSlot(addr=(0, row, 0))


class StubExecutor:
    def __init__(self, latency=800, with_slots=True):
        self.latency = latency
        self.with_slots = with_slots
        self.commits = []

    def preread_slots(self, entry):
        if not self.with_slots:
            return []
        bank, row, line = entry.addr
        return [PrereadSlot(addr=(bank, row + d, line)) for d in (1, 2)]

    def execute(self, entry, now):
        return SimpleNamespace(latency=self.latency)

    def _commit(self, entry, plan):
        self.commits.append(entry.addr)

    def _cancel(self, entry, plan, progress):
        pass

    def capture_baseline(self, slot):
        pass


def make_controller(scheme=None, wq=8):
    loop = EventLoop()
    executor = StubExecutor()
    counters = Counters()
    ctrl = MemoryController(
        memory=MemoryConfig(write_queue_entries=wq),
        timing=TimingConfig(),
        scheme=scheme or SchemeConfig(),
        scheduler=loop,
        executor=executor,
        counters=counters,
    )
    return loop, ctrl, executor, counters


def read(row=10, line=0):
    return (0, row, line)


def write(row=10, line=0):
    return WriteEntry(0, (0, row, line))


class TestBankQueueMethods:
    def test_append_pop_keeps_index(self):
        bank = BankState(index=0, wq_capacity=8)
        a, b, c = entry(1), entry(2), entry(1)
        for e in (a, b, c):
            bank.wq_append(e)
        assert_consistent(bank)
        assert bank.wq_index[(0, 1, 0)] == [a, c]  # queue order
        assert bank.wq_popleft() is a
        assert_consistent(bank)
        assert bank.wq_index[(0, 1, 0)] == [c]
        assert bank.wq_popleft() is b
        assert bank.wq_popleft() is c
        assert_consistent(bank)
        assert bank.wq_index == {}

    def test_appendleft_becomes_oldest(self):
        bank = BankState(index=0, wq_capacity=8)
        old, new = entry(3), entry(3)
        bank.wq_append(old)
        bank.wq_appendleft(new)
        assert_consistent(bank)
        # new sits at the queue front (oldest position): popped first, and
        # the line's index lists it first.
        assert bank.wq_index[(0, 3, 0)] == [new, old]
        assert bank.wq_popleft() is new
        assert bank.wq_index[(0, 3, 0)] == [old]
        assert_consistent(bank)

    def test_cursor_targets_first_pending_slot(self):
        bank = BankState(index=0, wq_capacity=8)
        done_slot, pending = slot(4), slot(6)
        done_slot.done = True
        e = entry(5, slots=[done_slot, pending])
        bank.wq_append(e)
        assert bank.next_preread_target() == (e, 1)
        pending.done = True
        assert bank.next_preread_target() is None
        assert not bank.preread_cursor
        assert not e.in_preread_cursor

    def test_cursor_skips_entries_without_slots(self):
        bank = BankState(index=0, wq_capacity=8)
        no_slots = entry(1)
        with_slots = entry(2, slots=[slot(3)])
        bank.wq_append(no_slots)
        bank.wq_append(with_slots)
        assert not no_slots.in_preread_cursor
        assert bank.next_preread_target() == (with_slots, 0)

    def test_cursor_drops_dequeued_entries(self):
        bank = BankState(index=0, wq_capacity=8)
        first = entry(1, slots=[slot(2)])
        second = entry(3, slots=[slot(4)])
        bank.wq_append(first)
        bank.wq_append(second)
        assert bank.wq_popleft() is first
        # first left the queue with a pending slot; the cursor must skip it.
        assert bank.next_preread_target() == (second, 0)
        assert not first.in_preread_cursor

    def test_reinsert_refreshes_cursor_position(self):
        bank = BankState(index=0, wq_capacity=8)
        a = entry(1, slots=[slot(2)])
        b = entry(3, slots=[slot(4)])
        bank.wq_append(a)
        bank.wq_append(b)
        popped = bank.wq_popleft()  # a heads off to execute...
        bank.wq_appendleft(popped)  # ...and is re-inserted (pause/cancel)
        assert_consistent(bank)
        assert list(bank.preread_cursor).count(a) == 1
        # a is back at the queue front, so it is the preread target again.
        assert bank.next_preread_target() == (a, 0)


class TestControllerKeepsIndexConsistent:
    def test_read_around_write_forwarding(self):
        loop, ctrl, _, counters = make_controller()
        assert ctrl.try_enqueue_write(write(row=10))
        bank = ctrl.banks[0]
        assert_consistent(bank)
        done = []
        ctrl.enqueue_read(read(row=10), done.append)
        assert counters.wq_forwarded_reads == 1
        loop.run()
        assert_consistent(bank)

    def test_preread_forwarding_keeps_index(self):
        scheme = SchemeConfig(preread=True)
        loop, ctrl, _, counters = make_controller(scheme=scheme)
        ctrl.try_enqueue_write(write(row=11))  # adjacent target of the next
        ctrl.try_enqueue_write(write(row=10))  # slots: rows 11 and 12
        assert counters.preread_forwards == 1
        bank = ctrl.banks[0]
        assert_consistent(bank)
        loop.run()  # prereads of the queued writes complete
        assert_consistent(bank)
        ctrl.quiesce()
        loop.run()
        assert_consistent(bank)
        assert bank.wq_index == {}

    def test_cancellation_reinserts_consistently(self):
        scheme = SchemeConfig(write_cancellation=True)
        loop, ctrl, _, counters = make_controller(scheme=scheme)
        ctrl.try_enqueue_write(write(row=10))
        bank = ctrl.banks[0]
        # Eager write is in flight; the read cancels it back into the queue.
        done = []
        ctrl.enqueue_read(read(row=3), done.append)
        assert counters.writes_cancelled == 1
        assert_consistent(bank)
        assert (0, 10, 0) in bank.wq_index
        loop.run()
        assert_consistent(bank)
        assert bank.wq_index == {}

    def test_pause_reinserts_consistently(self):
        scheme = SchemeConfig(write_pausing=True)
        loop, ctrl, ex, counters = make_controller(scheme=scheme)
        ctrl.try_enqueue_write(write(row=10))
        bank = ctrl.banks[0]
        done = []
        ctrl.enqueue_read(read(row=3), done.append)
        assert counters.writes_paused == 1
        assert_consistent(bank)
        loop.run()
        assert_consistent(bank)
        assert bank.wq_index == {}
        assert len(ex.commits) == 1  # the paused write still completed

    def test_drain_pops_keep_index(self):
        loop, ctrl, _, _ = make_controller(wq=2)
        ctrl.try_enqueue_write(write(row=1))
        ctrl.try_enqueue_write(write(row=2))  # full -> drain to low water
        bank = ctrl.banks[0]
        assert_consistent(bank)
        loop.run()
        assert_consistent(bank)
        ctrl.quiesce()
        loop.run()
        assert_consistent(bank)
        assert bank.wq_index == {}
