"""(n:m)-Alloc: the WD-aware page allocator (Section 4.4).

Each (n:m) ratio owns a free-block-list array ``Free-(n:m)``.  When it runs
dry, a whole 64 MB block (order-14, 16384 frames) is pulled from the
baseline ``Free-(1:1)`` buddy allocator; the block's no-use strips (see
:mod:`repro.alloc.strips`) are marked and never handed out, and page
frames are carved one at a time, in address order, from its used strips.
A simulated process never frees a page, so the paper's free path
(returning a whole 64 MB block to Free-(1:1)) is not modelled.

(1:1) is carved the same way from blocks with no no-use strip.  With no
frees and only order-0 and order-14 requests, the buddy system's order-0
allocations walk a block in address order and split the next block only
once the current one is used up, the moment carving pulls it; so carving
hands out the buddy system's frames, in its order, without splitting a
block 14 times per page.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, Tuple

from ..config import PAGES_PER_STRIP
from ..errors import AllocationError
from .buddy import BuddyAllocator
from .strips import (
    PAGES_PER_BLOCK,
    usable_fraction,
    used_strips_in_block,
    validate_ratio,
)

#: Buddy order of a 64 MB block (16384 frames).
BLOCK_ORDER = 14
assert (1 << BLOCK_ORDER) == PAGES_PER_BLOCK


class NMAllocManager:
    """All (n:m) allocators over one physical memory, Figure 10 style."""

    def __init__(self, total_frames: int):
        if total_frames % PAGES_PER_BLOCK:
            raise AllocationError("memory must be a multiple of 64 MB")
        self.backing = BuddyAllocator(total_frames, max_order=BLOCK_ORDER)
        #: Per (n, m) ratio: the frames of its current block not yet handed
        #: out, in address order.
        self._ratios: Dict[Tuple[int, int], Iterator[int]] = {}

    # -- public API -----------------------------------------------------------

    def allocate_frame(self, n: int = 1, m: int = 1) -> int:
        """Allocate one page frame from the (n:m) allocator."""
        frames = self._ratios.get((n, m))
        if frames is not None:
            frame = next(frames, None)
            if frame is not None:
                return frame
        return self._refill(n, m)

    def usable_fraction(self, n: int, m: int) -> float:
        """Capacity fraction usable under (n:m) (1.0 for (1:1))."""
        validate_ratio(n, m)
        return 1.0 if n == m else usable_fraction(n, m)

    # -- internals -------------------------------------------------------------

    def _refill(self, n: int, m: int) -> int:
        """Pull one 64 MB block from Free-(1:1) for (n:m); returns the
        first frame of its first used strip."""
        validate_ratio(n, m)
        base = self.backing.allocate(BLOCK_ORDER)
        frames = self._ratios[(n, m)] = chain.from_iterable(
            range(base + s * PAGES_PER_STRIP, base + (s + 1) * PAGES_PER_STRIP)
            for s in used_strips_in_block(n, m)
        )
        return next(frames)
