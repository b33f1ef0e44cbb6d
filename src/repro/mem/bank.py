"""Per-bank state: queues, the in-flight operation, and drain mode."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..pcm.array import LineAddress
from .request import PrereadSlot, RequestKind, WriteEntry


@dataclass(slots=True)
class InFlightOp:
    """The operation currently occupying a bank.

    Slotted; the controller builds one per write or pre-read positionally,
    in field order, and keeps one READ op per bank that every demand read
    reuses.
    """

    kind: RequestKind
    start: int
    latency: int
    #: Cooperative cancellation flag checked when the completion event fires.
    cancelled: bool = False
    #: The write-queue entry (WRITE ops).
    entry: Optional[WriteEntry] = None
    #: The executor's plan, already applied: committed at completion, or
    #: undone and partially re-applied on cancellation (WRITE ops).
    plan: Any = None
    #: The slot being filled (PREREAD ops).
    slot: Optional[PrereadSlot] = None

    @property
    def end(self) -> int:
        return self.start + self.latency

    def remaining(self, now: int) -> int:
        return max(0, self.end - now)

    def progress(self, now: int) -> float:
        if self.latency <= 0:
            return 1.0
        return min(1.0, max(0.0, (now - self.start) / self.latency))


@dataclass
class BankState:
    """One PCM bank: FIFO read queue, bounded write queue, busy op.

    The write queue is a deque (both the drain pop and the pause/cancel
    re-insert touch the front, which ``list`` makes O(n)) mirrored by two
    derived structures the controller's hot paths rely on:

    * ``wq_index`` maps (bank, row, line) to the queued entries for that
      line in queue order (a key is present only while its list is
      non-empty), so forwarding probes — ``addr in wq_index`` on *every*
      demand read and every enqueued write's slots — are O(1) instead of
      a reverse scan of the queue.
    * ``preread_cursor`` keeps, in queue order, the entries that still
      owe PreRead work, so :meth:`next_preread_target` stops rescanning
      the whole queue on every scheduler kick.  Entries are invalidated
      lazily (``in_write_q``/pending-slot checks) when they reach the
      cursor head.  Only a PreRead scheme reads it, so a bank built with
      ``prereads=False`` keeps it empty (it would otherwise hold every
      write of the run).

    Mutate the queue only through :meth:`wq_append`, :meth:`wq_appendleft`
    and :meth:`wq_popleft`; they keep all three structures consistent.
    """

    index: int
    wq_capacity: int
    #: Whether PreRead runs: only then does the cursor track entries.
    prereads: bool = True
    #: Pending demand reads: (delay, on_done, args), the continuation
    #: each read's completion pushes (see ``MemoryController.enqueue_read``).
    read_q: Deque[Tuple[int, Callable[..., None], tuple]] = field(
        default_factory=deque
    )
    write_q: Deque[WriteEntry] = field(default_factory=deque)
    wq_index: Dict[LineAddress, List[WriteEntry]] = field(default_factory=dict)
    preread_cursor: Deque[WriteEntry] = field(default_factory=deque)
    current: Optional[InFlightOp] = None
    #: True while the controller is flushing the write queue (bursty write);
    #: reads to this bank wait until the flush completes.
    draining: bool = False
    #: End-of-trace flush: drain to empty instead of the low-water mark.
    flush_all: bool = False
    #: Cores blocked because the write queue was full, woken on space.
    space_waiters: List[Callable[[int], None]] = field(default_factory=list)

    @property
    def busy(self) -> bool:
        return self.current is not None

    # -- write-queue mutation (keeps the index and cursor in sync) -------------

    def wq_append(self, entry: WriteEntry) -> None:
        """Enqueue a new write at the back of the queue."""
        self.write_q.append(entry)
        entry.in_write_q = True
        self.wq_index.setdefault(entry.addr, []).append(entry)
        if self.prereads and entry.pending_preread() is not None:
            self._cursor_add(entry, front=False)

    def wq_appendleft(self, entry: WriteEntry) -> None:
        """Re-insert a paused/cancelled write at the front of the queue."""
        self.write_q.appendleft(entry)
        entry.in_write_q = True
        self.wq_index.setdefault(entry.addr, []).insert(0, entry)
        if self.prereads and entry.pending_preread() is not None:
            self._cursor_add(entry, front=True)

    def wq_popleft(self) -> WriteEntry:
        """Dequeue the oldest write for execution."""
        entry = self.write_q.popleft()
        entry.in_write_q = False
        key = entry.addr
        entries = self.wq_index[key]
        for i, candidate in enumerate(entries):
            if candidate is entry:
                del entries[i]
                break
        if not entries:
            del self.wq_index[key]
        return entry

    def _cursor_add(self, entry: WriteEntry, front: bool) -> None:
        if entry.in_preread_cursor:
            # A pause/cancel re-insert moves the entry to the queue front;
            # refresh its (stale) cursor position to match.
            self.preread_cursor.remove(entry)
        entry.in_preread_cursor = True
        if front:
            self.preread_cursor.appendleft(entry)
        else:
            self.preread_cursor.append(entry)

    def next_preread_target(self) -> Optional[PrereadSlot]:
        """The first pending slot of the first queued entry (in queue
        order) still owing a pre-read; drops exhausted or dequeued entries
        from the cursor head on the way."""
        while self.preread_cursor:
            entry = self.preread_cursor[0]
            slot = entry.pending_preread() if entry.in_write_q else None
            if slot is not None:
                return slot
            self.preread_cursor.popleft()
            entry.in_preread_cursor = False
        return None
