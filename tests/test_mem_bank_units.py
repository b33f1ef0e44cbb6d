"""Unit tests for bank state and in-flight op bookkeeping."""

from __future__ import annotations

import pytest

from repro.config import MemoryConfig, SchemeConfig, TimingConfig
from repro.core.engine import EventLoop
from repro.mem.bank import BankState, InFlightOp
from repro.mem.controller import MemoryController
from repro.mem.request import (
    PausedWrite,
    PrereadSlot,
    RequestKind,
    WriteEntry,
)
from repro.stats.counters import Counters


def entry(row=5, line=0):
    return WriteEntry(0, (0, row, line))


class TestInFlightOp:
    def test_progress_and_remaining(self):
        op = InFlightOp(kind=RequestKind.WRITE, start=100, latency=800)
        assert op.end == 900
        assert op.remaining(100) == 800
        assert op.remaining(500) == 400
        assert op.remaining(1200) == 0
        assert op.progress(100) == 0.0
        assert op.progress(500) == pytest.approx(0.5)
        assert op.progress(1200) == 1.0

    def test_zero_latency_progress(self):
        op = InFlightOp(kind=RequestKind.READ, start=0, latency=0)
        assert op.progress(0) == 1.0


class TestBankState:
    def test_wq_full(self):
        """The controller turns away a write once the queue holds
        ``wq_capacity`` entries, and starts a drain."""
        ctrl = MemoryController(
            MemoryConfig(write_queue_entries=2), TimingConfig(),
            SchemeConfig(), EventLoop(), None, Counters(),
        )
        bank = ctrl.banks[0]
        bank.current = InFlightOp(kind=RequestKind.READ, start=0, latency=1)
        bank.wq_append(entry(1))
        bank.wq_append(entry(2))
        assert not ctrl.try_enqueue_write(entry(3))
        assert bank.draining and ctrl.counters.wq_full_stalls == 1
        assert len(bank.write_q) == bank.wq_capacity

    def test_find_write_returns_youngest(self):
        """The line index lists a line's queued writes oldest first."""
        bank = BankState(index=0, wq_capacity=8)
        first, second = entry(5), entry(5)
        for e in (first, entry(6), second):
            bank.wq_append(e)
        assert bank.wq_index[(0, 5, 0)] == [first, second]

    def test_find_write_misses(self):
        """The controller's forwarding probe misses an unqueued line."""
        bank = BankState(index=0, wq_capacity=8)
        bank.wq_append(entry(5))
        assert (0, 9, 0) not in bank.wq_index
        assert (0, 5, 0) in bank.wq_index

    def test_busy_reflects_current(self):
        bank = BankState(index=0, wq_capacity=8)
        assert not bank.busy
        bank.current = InFlightOp(kind=RequestKind.READ, start=0, latency=400)
        assert bank.busy


class TestWriteEntry:
    def test_pending_preread_order(self):
        e = entry()
        a = PrereadSlot(addr=(0, 4, 0))
        b = PrereadSlot(addr=(0, 6, 0))
        e.slots = [a, b]
        assert e.pending_preread() is a
        a.done = True
        assert e.pending_preread() is b
        b.done = True
        assert e.pending_preread() is None

    def test_paused_state_holds_commit(self):
        """A paused write keeps the executor's plan, still to commit."""
        plan = object()
        e = entry()
        e.paused = PausedWrite(plan, remaining=300)
        assert e.paused.plan is plan
        assert e.paused.remaining == 300
