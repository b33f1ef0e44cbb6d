"""Page table with the (n:m) allocator tag (Section 4.4, Figure 9).

The OS records, per page, which (n:m) allocator produced its frame; the tag
travels page table -> TLB -> memory controller, which uses it to decide
which adjacent lines of a written line need verification.  The engine reads
the page table directly: the TLB only carries the tag and is not modelled.
The paper sizes the tag at 4 bits (16 allocators, Section 6.2).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..errors import AllocationError

#: Tag width in the PTE/TLB (Section 6.2).
TAG_BITS = 4
MAX_ALLOCATORS = 1 << TAG_BITS


class PageTable:
    """Per-process map of virtual pages to frames, all tagged ``nm_tag``.

    ``frame_source`` is called on demand faults with the process's (n:m)
    ratio and must return a fresh frame (the engine wires this to
    :class:`~repro.alloc.nm_alloc.NMAllocManager`).  Every PTE carries the
    table's one tag, so the table stores frames only.  Nothing rewrites
    an entry (page tables never remap).
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
        self._frames: Dict[int, int] = {}
        self.faults = 0

    def translate(self, vpage: int) -> int:
        """The page's frame, demand-allocated on first touch."""
        frame = self._frames.get(vpage)
        if frame is None:
            self.faults += 1
            frame = self._frames[vpage] = self._frame_source(*self.nm_tag)
        return frame

