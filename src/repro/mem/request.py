"""Memory requests exchanged between cores, controller, and banks."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Sequence, Tuple

from ..pcm.array import LineAddress


class RequestKind(Enum):
    """The controller's request classes, in descending priority."""

    #: Demand read from a core (highest priority; may cancel writes [22]).
    READ = "read"
    #: Buffered write-back from a core.
    WRITE = "write"
    #: Low-priority pre-write read issued by PreRead (Section 4.3).
    PREREAD = "preread"


@dataclass(slots=True)
class PrereadSlot:
    """PreRead bookkeeping for one adjacent line of a write-queue entry.

    Mirrors the Figure 8 hardware: one flag bit plus one 64 B data buffer.
    The simulator needs only the buffer's freshness: the victim line's
    write epoch when the pre-read completed (its data is the array's).
    """

    addr: LineAddress
    done: bool = False
    #: The victim line's write-epoch at snapshot time; a mismatch at verify
    #: time means an intervening demand write made the buffer stale.
    epoch: int = -1
    #: True when the buffer was filled by forwarding from the write queue
    #: (the adjacent line's newest data was still queued, Section 4.3).
    forwarded: bool = False


@dataclass(slots=True)
class PausedWrite:
    """State carried across a write pause [22]: the executor's plan, still
    to be committed, plus the programming cycles owed when it resumes."""

    plan: Any
    remaining: int


@dataclass(slots=True, eq=False)
class WriteEntry:
    """One demand write from a core and its write-queue bookkeeping.

    Slotted and built positionally on the replay hot path (one per trace
    write).  Demand reads carry no request object (see
    :meth:`~repro.mem.controller.MemoryController.enqueue_read`).

    Entries have identity semantics (``eq=False``): two distinct entries
    may carry field-equal writes, and the bank's line index and preread
    cursor must distinguish them.
    """

    core: int
    addr: LineAddress
    #: Allocation tag of the page this line belongs to ((n:m)-Alloc,
    #: Figure 9); the executor uses it to decide which adjacent lines
    #: need verification.
    nm_tag: Tuple[int, int] = (1, 1)
    #: PreRead slots for the adjacent lines that will need verification
    #: (0, 1, or 2 of them depending on the (n:m) tag and block edges);
    #: set by the controller when it accepts the write.
    slots: Sequence[PrereadSlot] = ()
    #: Number of times this write was cancelled and re-queued [22].
    cancellations: int = 0
    #: The write's logical payload as a 512-bit integer, synthesised once
    #: on first execution so a cancelled-and-retried write rewrites the
    #: *same* data.
    payload_int: Optional[int] = None
    #: Set while the write is paused mid-op (write pausing policy).
    paused: Optional[PausedWrite] = None
    #: Number of times this write was paused.
    pauses: int = 0
    #: Maintained by :class:`~repro.mem.bank.BankState`'s queue methods:
    #: True while the entry sits in its bank's write queue.
    in_write_q: bool = False
    #: True while the entry is tracked by the bank's preread cursor.
    in_preread_cursor: bool = False

    def pending_preread(self) -> Optional[PrereadSlot]:
        """The first adjacent line still waiting for its pre-read."""
        for slot in self.slots:
            if not slot.done:
                return slot
        return None
