"""Page table with the (n:m) allocator tag (Section 4.4, Figure 9).

The OS records, per page, which (n:m) allocator produced its frame; the tag
travels page table -> TLB -> memory controller, which uses it to decide
which adjacent lines of a written line need verification.  The engine reads
the page table directly: the TLB only carries the tag and is not modelled.
The paper sizes the tag at 4 bits (16 allocators, Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..errors import AllocationError

#: Tag width in the PTE/TLB (Section 6.2).
TAG_BITS = 4
MAX_ALLOCATORS = 1 << TAG_BITS


@dataclass(slots=True)
class PageTableEntry:
    """One PTE: the frame plus the (n:m) allocator tag.

    Slotted, not frozen: a fault builds one, and a frozen dataclass's
    ``__init__`` costs two ``object.__setattr__`` calls.  Nothing
    rewrites an entry (page tables never remap).
    """

    frame: int
    nm_tag: Tuple[int, int]


class PageTable:
    """Per-process map of virtual pages to tagged frames.

    ``frame_source`` is called on demand faults with the process's (n:m)
    ratio and must return a fresh frame (the engine wires this to
    :class:`~repro.alloc.nm_alloc.NMAllocManager`).
    """

    def __init__(
        self,
        nm_tag: Tuple[int, int],
        frame_source: Callable[[int, int], int],
    ):
        n, m = nm_tag
        if not 0 < n <= m:
            raise AllocationError(f"bad (n:m) tag ({n}:{m})")
        self.nm_tag = nm_tag
        self._frame_source = frame_source
        self._entries: Dict[int, PageTableEntry] = {}
        self.faults = 0

    def translate(self, vpage: int) -> PageTableEntry:
        """Translate, demand-allocating a frame on first touch."""
        entry = self._entries.get(vpage)
        if entry is None:
            self.faults += 1
            entry = self._entries[vpage] = PageTableEntry(
                self._frame_source(*self.nm_tag), self.nm_tag
            )
        return entry

