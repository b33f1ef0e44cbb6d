"""The PCM memory controller (Table 2, Sections 4.3/6.8).

Scheduling policy, per bank:

* Demand reads have priority and are serviced FIFO whenever the bank is
  free and not draining.
* Writes are buffered in the per-bank write queue.  In the paper's default
  policy the queue is flushed when full ("bursty write"), blocking reads to
  the bank until the flush completes.  With write cancellation [22] the
  controller instead schedules writes eagerly whenever a bank is idle and
  lets a demand read cancel an in-flight write that is not nearly done.
* With PreRead (Section 4.3), idle banks opportunistically perform the
  pre-write reads of queued writes' adjacent lines, at lower priority than
  demand reads.

Reads that hit a queued write are forwarded from the write queue without an
array access.  The actual contents of a write operation (differential
write + VnC + LazyCorrection) are delegated to a :class:`WriteExecutor`
implementation — see :mod:`repro.core.vnc`.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Protocol

from ..config import MemoryConfig, SchemeConfig, TimingConfig
from ..errors import SimulationError
from ..pcm.array import LineAddress
from ..stats.counters import Counters
from .bank import BankState, InFlightOp
from .request import PausedWrite, PrereadSlot, RequestKind, WriteEntry

#: Cycles to forward read data straight out of the write queue.
FORWARD_READ_CYCLES = 4

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE
_PREREAD = RequestKind.PREREAD

#: Maximum times one write may be paused before it runs to completion —
#: guards against read-stream starvation of writes (the original proposal
#: bounds pre-emptions the same way [22]).
MAX_PAUSES_PER_WRITE = 4

#: Write cancellation [22]: a write whose remaining work is at most this
#: fraction of its latency is nearly done and is not cancelled.
WC_THRESHOLD = 0.25


class Scheduler(Protocol):
    """The event loop interface the controller schedules completions on.

    Read events skip ``schedule``: they push ``(time, seq, fn, args)``
    onto ``heap`` and bump ``seq`` (see :class:`repro.core.engine.EventLoop`).
    """

    now: int
    heap: list
    seq: int

    def schedule(
        self, time: int, fn: Callable[..., None], *args
    ) -> None: ...


class WriteExecutor(Protocol):
    """Scheme-specific write-path behaviour plugged into the controller.

    ``execute`` samples a fully composed write operation, applies its
    effects on the array and ECP state at once, and returns the plan;
    its ``latency`` covers the pre-write reads (unless PreRead already
    did them), the differential write, verification reads, and any
    correction writes including cascades.  That is safe because nothing
    else touches the op's bank until the plan comes back: the controller
    hands it back once, to ``_commit`` at completion (which charges wear
    and counters), or to ``_cancel``, which undoes the op and applies the
    partial effects of an interrupted write (the cells already pulsed
    still disturbed their neighbours).  A paused write keeps its plan and
    resumes before its bank starts any other op.  Only the controller
    calls those two, and ``perfbench/layers.py`` wraps them by name.
    """

    def preread_slots(self, entry: WriteEntry) -> List[PrereadSlot]:
        """Adjacent lines of this write that will need verification."""
        ...

    def execute(self, entry: WriteEntry, now: int) -> Any:
        """Plan the composite write op for an entry popped from the queue."""
        ...

    def _commit(self, entry: WriteEntry, plan: Any) -> None:
        """Apply a completed write's plan."""
        ...

    def _cancel(self, entry: WriteEntry, plan: Any, progress: float) -> None:
        """Apply the effects of the ``progress`` share of a cancelled write."""
        ...

    def capture_baseline(self, slot: PrereadSlot) -> None:
        """Record the victim line's write epoch into a completed PreRead slot."""
        ...


class MemoryController:
    """Per-bank scheduling of reads, writes, prereads, and cancellations."""

    def __init__(
        self,
        memory: MemoryConfig,
        timing: TimingConfig,
        scheme: SchemeConfig,
        scheduler: Scheduler,
        executor: WriteExecutor,
        counters: Counters,
    ):
        self.memory = memory
        self.timing = timing
        self.scheme = scheme
        self.scheduler = scheduler
        self.executor = executor
        self.counters = counters
        self.banks = [
            BankState(index=i, wq_capacity=memory.write_queue_entries)
            for i in range(memory.banks)
        ]
        #: Bursty drains run until the queue falls to this low-water mark,
        #: then reads regain the bank (high/low watermark flushing).
        self._drain_low_water = memory.write_queue_entries // 2
        #: Scheme flags resolved once (the scheme is frozen).  A demand
        #: read can pre-empt a write only under cancellation or pausing,
        #: and either policy also schedules writes eagerly.
        self._preempt = scheme.write_cancellation or scheme.write_pausing
        self._eager = self._preempt or scheme.eager_writes
        self._preread = scheme.preread
        self._read_cycles = timing.read_cycles
        #: Per bank, the one READ op every demand read holds the bank with
        #: (nothing pre-empts a read, so it needs no ``start``).
        self._read_ops = [
            InFlightOp(_READ, 0, timing.read_cycles) for _ in self.banks
        ]

    # -- request entry points --------------------------------------------------

    def enqueue_read(
        self, addr: LineAddress, on_done: Callable[..., None], *done_args
    ) -> None:
        """Accept a demand read of ``addr``; completes via
        ``on_done(*done_args, finish_time)``.

        A read carries no request object: the leading arguments let
        callers pass a bound method plus its context, and the read queue
        holds ``(on_done, done_args)`` until the bank serves it.
        """
        bank = self.banks[addr[0]]
        counters = self.counters
        counters.demand_reads += 1
        if addr in bank.wq_index:
            # Read-around-write: newest data is still in the write queue.
            counters.wq_forwarded_reads += 1
            loop = self.scheduler
            seq = loop.seq
            loop.seq = seq + 1
            heappush(
                loop.heap,
                (loop.now + FORWARD_READ_CYCLES, seq, on_done, done_args),
            )
            return
        bank.read_q.append((on_done, done_args))
        if self._preempt:
            self._maybe_cancel_for_read(bank)
            self._maybe_pause_for_read(bank)
        self._kick(bank)

    def try_enqueue_write(self, entry: WriteEntry) -> bool:
        """Accept a write into its bank's queue; False when the queue is full.

        A full queue triggers (or continues) a bursty drain; the caller must
        retry via :meth:`wait_for_space`.
        """
        bank = self.banks[entry.addr[0]]
        if bank.wq_full:
            self.counters.wq_full_stalls += 1
            bank.draining = True
            self._kick(bank)
            return False
        entry.slots = self.executor.preread_slots(entry)
        self._apply_queue_forwarding(bank, entry)
        bank.wq_append(entry)
        self.counters.demand_writes += 1
        if bank.wq_full:
            bank.draining = True
            self.counters.drains += 1
        self._kick(bank)
        return True

    def wait_for_space(self, bank_index: int, waiter: Callable[[int], None]) -> None:
        """Register a callback for when the bank's write queue has space."""
        self.banks[bank_index].space_waiters.append(waiter)

    def quiesce(self) -> bool:
        """Start drains everywhere so queued writes finish (end of trace)."""
        busy = False
        for bank in self.banks:
            if bank.write_q or bank.busy or bank.read_q:
                busy = True
            if bank.write_q:
                bank.draining = True
                bank.flush_all = True
                self._kick(bank)
        return busy

    # -- internals ---------------------------------------------------------------

    def _apply_queue_forwarding(self, bank: BankState, entry: WriteEntry) -> None:
        """Section 4.3: if an adjacent line's newest data is still queued,
        the pre-read is satisfied by forwarding, not by an array read."""
        queued = bank.wq_index
        for slot in entry.slots:
            if slot.addr in queued:
                slot.done = True
                slot.forwarded = True
                self.counters.preread_forwards += 1

    def _maybe_cancel_for_read(self, bank: BankState) -> None:
        """Write-cancellation policy [22] on demand-read arrival.

        A read cancels an in-flight write whose remaining work exceeds
        :data:`WC_THRESHOLD` of its latency; a nearly-done write finishes.
        Cancelled prereads are free; a cancelled write re-enters the queue
        head and replays later.  The paper's "repeated write operations
        tend to introduce more WD errors on adjacent lines" follows: the
        pulses the cancelled attempt fired keep their disturbance
        (``VnCExecutor._cancel`` applies it in proportion to progress), and
        the retry disturbs again.
        """
        if not self.scheme.write_cancellation:
            return
        op = bank.current
        if op is None or bank.draining:
            return
        now = self.scheduler.now
        if op.kind is _PREREAD:
            op.cancelled = True
            self.counters.prereads_cancelled += 1
            bank.current = None
            self._kick(bank)
        elif op.kind is _WRITE:
            if op.remaining(now) <= WC_THRESHOLD * op.latency:
                return  # nearly done; let it finish
            op.cancelled = True
            self.counters.writes_cancelled += 1
            self.counters.total_write_busy_cycles -= op.remaining(now)
            if op.entry is None:
                raise SimulationError("cancelled write op without entry")
            self.executor._cancel(op.entry, op.plan, op.progress(now))
            op.entry.cancellations += 1
            bank.wq_appendleft(op.entry)
            bank.current = None
            self._kick(bank)

    def _maybe_pause_for_read(self, bank: BankState) -> None:
        """Write-pausing policy [22]: stop an in-flight write at a round
        boundary, serve the read, resume later with no lost work."""
        if not self.scheme.write_pausing:
            return
        op = bank.current
        if op is None or bank.draining or op.kind is not _WRITE:
            return
        now = self.scheduler.now
        remaining = op.remaining(now)
        if remaining < self.timing.reset_cycles:
            return  # within the final round; let it finish
        if op.entry is None:
            raise SimulationError("paused write op without entry")
        if op.entry.pauses >= MAX_PAUSES_PER_WRITE:
            return  # starvation guard: let the write finish
        op.cancelled = True
        op.entry.paused = PausedWrite(op.plan, remaining)
        op.entry.pauses += 1
        self.counters.writes_paused += 1
        # The remaining cycles will be re-charged when the write resumes.
        self.counters.total_write_busy_cycles -= remaining
        bank.wq_appendleft(op.entry)
        bank.current = None
        self._kick(bank)

    def _kick(self, bank: BankState) -> None:
        """Start the next operation on an idle bank.

        Priority: a draining bank writes (or idles once its queue is
        empty); otherwise demand reads go first, then eager writes, then
        PreRead.
        """
        if bank.current is not None:
            return
        if bank.draining:
            if bank.write_q:
                self._start_write(bank, self.scheduler.now)
        elif bank.read_q:
            self._start_read(bank, self.scheduler.now)
        elif self._eager and bank.write_q:
            # Eager write scheduling: reads can still pre-empt via
            # cancellation or pausing, so writes need not wait for drains.
            self._start_write(bank, self.scheduler.now)
        elif self._preread:
            self._start_preread(bank, self.scheduler.now)

    def _start_write(self, bank: BankState, now: int) -> None:
        entry = bank.wq_popleft()
        if bank.space_waiters:
            self._wake_space_waiters(bank, now)
        paused = entry.paused
        if paused is not None:
            # Resume a paused write: the op was already planned and
            # applied; only the outstanding programming cycles remain.
            entry.paused = None
            plan, latency = paused.plan, paused.remaining
        else:
            plan = self.executor.execute(entry, now)
            latency = plan.latency
        op = InFlightOp(_WRITE, now, latency, False, entry, plan)
        bank.current = op
        self.counters.total_write_busy_cycles += latency
        self.scheduler.schedule(now + latency, self._finish, bank, op)

    def _start_read(self, bank: BankState, now: int) -> None:
        bank.current = self._read_ops[bank.index]
        latency = self._read_cycles
        self.counters.total_read_busy_cycles += latency
        loop = self.scheduler
        seq = loop.seq
        loop.seq = seq + 1
        heappush(loop.heap, (
            now + latency, seq, self._finish_read, (bank, bank.read_q.popleft())
        ))

    def _finish_read(self, bank: BankState, read: tuple, now: int) -> None:
        bank.current = None
        on_done, done_args = read
        on_done(*done_args, now)
        self._kick(bank)

    def _start_preread(self, bank: BankState, now: int) -> None:
        target = bank.next_preread_target()
        if target is None:
            return
        entry, slot_index = target
        latency = self._read_cycles
        op = InFlightOp(_PREREAD, now, latency, False, entry, None, slot_index)
        bank.current = op
        self.counters.prereads_issued += 1
        self.counters.total_preread_busy_cycles += latency
        self.scheduler.schedule(now + latency, self._finish, bank, op)

    def _finish(self, bank: BankState, op: InFlightOp, now: int) -> None:
        if op.cancelled:
            return
        if bank.current is not op:
            raise SimulationError("bank completion for a non-current op")
        bank.current = None
        kind = op.kind
        if kind is _WRITE:
            self.executor._commit(op.entry, op.plan)
            low_water = 0 if bank.flush_all else self._drain_low_water
            if bank.draining and len(bank.write_q) <= low_water:
                bank.draining = False
                if not bank.write_q:
                    bank.flush_all = False
        elif kind is _PREREAD:
            if op.entry is not None and 0 <= op.slot_index < len(op.entry.slots):
                slot = op.entry.slots[op.slot_index]
                if not slot.done:
                    slot.done = True
                    self.executor.capture_baseline(slot)
        self._kick(bank)

    def _wake_space_waiters(self, bank: BankState, now: int) -> None:
        waiters, bank.space_waiters = bank.space_waiters, []
        for waiter in waiters:
            self.scheduler.schedule(now, waiter)
