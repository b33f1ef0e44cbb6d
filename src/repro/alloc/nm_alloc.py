"""(n:m)-Alloc: the WD-aware page allocator (Section 4.4).

Each (n:m) ratio owns a free-block-list array ``Free-(n:m)``.  When it runs
dry, a whole 64 MB block (order-14, 16384 frames) is pulled from the
baseline ``Free-(1:1)`` buddy allocator; the block's no-use strips (see
:mod:`repro.alloc.strips`) are marked and never handed out, and the used
strips are linked into the per-ratio free structure.  Page frames are
carved one at a time from a used strip.  A simulated process never frees
a page, so the paper's free path (returning a whole 64 MB block to
Free-(1:1)) is not modelled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Tuple

from ..config import PAGES_PER_STRIP
from ..errors import AllocationError
from .buddy import BuddyAllocator
from .strips import (
    PAGES_PER_BLOCK,
    STRIPS_PER_BLOCK,
    is_no_use,
    usable_fraction,
    validate_ratio,
)

#: Buddy order of a 64 MB block (16384 frames).
BLOCK_ORDER = 14
assert (1 << BLOCK_ORDER) == PAGES_PER_BLOCK


@dataclass
class _RatioState:
    """Free structure of one (n:m) allocator."""

    free_strips: Deque[int] = field(default_factory=deque)  # global strip ids
    #: Partially carved strip: (strip id, next page offset within strip).
    partial: Tuple[int, int] | None = None


class NMAllocManager:
    """All (n:m) allocators over one physical memory, Figure 10 style."""

    def __init__(self, total_frames: int):
        if total_frames % PAGES_PER_BLOCK:
            raise AllocationError("memory must be a multiple of 64 MB")
        self.backing = BuddyAllocator(total_frames, max_order=BLOCK_ORDER)
        self._ratios: Dict[Tuple[int, int], _RatioState] = {}

    # -- public API -----------------------------------------------------------

    def allocate_frame(self, n: int = 1, m: int = 1) -> int:
        """Allocate one page frame from the (n:m) allocator.

        (1:1) goes straight to the buddy system; other ratios carve used
        strips of their own 64 MB blocks.
        """
        validate_ratio(n, m)
        if n == m:
            return self.backing.allocate(0)
        state = self._state(n, m)
        if state.partial is not None:
            strip, offset = state.partial
            frame = strip * PAGES_PER_STRIP + offset
            offset += 1
            state.partial = None if offset == PAGES_PER_STRIP else (strip, offset)
            return frame
        strip = self._take_strip(state, n, m)
        state.partial = (strip, 1)
        return strip * PAGES_PER_STRIP

    def usable_fraction(self, n: int, m: int) -> float:
        """Capacity fraction usable under (n:m) (1.0 for (1:1))."""
        validate_ratio(n, m)
        return 1.0 if n == m else usable_fraction(n, m)

    # -- internals -------------------------------------------------------------

    def _state(self, n: int, m: int) -> _RatioState:
        key = (n, m)
        state = self._ratios.get(key)
        if state is None:
            state = _RatioState()
            self._ratios[key] = state
        return state

    def _take_strip(self, state: _RatioState, n: int, m: int) -> int:
        if not state.free_strips:
            self._refill(state, n, m)
        return state.free_strips.popleft()

    def _refill(self, state: _RatioState, n: int, m: int) -> None:
        """Pull one 64 MB block from Free-(1:1) and link its used strips."""
        base = self.backing.allocate(BLOCK_ORDER)
        first_strip = base // PAGES_PER_STRIP
        used = [
            first_strip + s
            for s in range(STRIPS_PER_BLOCK)
            if not is_no_use(first_strip + s, n, m)
        ]
        state.free_strips.extend(used)

