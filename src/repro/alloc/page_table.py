"""Page table and TLB with the (n:m) allocator tag (Section 4.4, Figure 9).

The OS records, per page, which (n:m) allocator produced its frame; the tag
travels page table -> TLB -> memory controller, which uses it to decide
which adjacent lines of a written line need verification.  The paper sizes
the tag at 4 bits (16 allocators, Section 6.2).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..errors import AllocationError

#: Tag width in the PTE/TLB (Section 6.2).
TAG_BITS = 4
MAX_ALLOCATORS = 1 << TAG_BITS


@dataclass(frozen=True)
class PageTableEntry:
    """One PTE: the frame plus the (n:m) allocator tag."""

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
            frame = self._frame_source(*self.nm_tag)
            entry = PageTableEntry(frame=frame, nm_tag=self.nm_tag)
            self._entries[vpage] = entry
        return entry

    def lookup(self, vpage: int) -> Optional[PageTableEntry]:
        """Translate without faulting; None when unmapped."""
        return self._entries.get(vpage)

    @property
    def mapped_pages(self) -> int:
        return len(self._entries)


class TLB:
    """A small LRU TLB caching tagged translations.

    The timing engine reads the page table directly (TLB reach is
    irrelevant to the memory-side effects the paper evaluates, and its tag
    plumbing is what Figure 9 adds — modelled here).
    """

    def __init__(self, entries: int = 64):
        if entries <= 0:
            raise AllocationError("TLB needs at least one entry")
        self.capacity = entries
        self._entries: "OrderedDict[int, PageTableEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def translate(self, vpage: int, page_table: PageTable) -> PageTableEntry:
        cached = self._entries.get(vpage)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(vpage)
            return cached
        self.misses += 1
        entry = page_table.translate(vpage)
        self._entries[vpage] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
