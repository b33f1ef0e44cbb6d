"""A classic binary buddy page allocator (the §4.4 baseline).

Maintains free lists of 2^k-page blocks ("the 2^3-page-sized block list")
and splits larger blocks on demand.  A simulated process never frees a
page, so blocks are never returned and never coalesce (the free path is
listed as not modelled in ``docs/PAPER_MAP.md``).  This is the
Free-(1:1) backing store; :mod:`repro.alloc.nm_alloc` layers the
per-(n:m) free-block-list arrays on top of it, pulling whole 64 MB
blocks.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..errors import AllocationError


class BuddyAllocator:
    """Buddy allocator over frames ``[0, total_frames)``.

    ``total_frames`` must be a multiple of the largest block size
    (``2**max_order``); the region is seeded as max-order blocks.
    """

    def __init__(self, total_frames: int, max_order: int = 14):
        if max_order < 0:
            raise AllocationError("max_order must be >= 0")
        top = 1 << max_order
        if total_frames <= 0 or total_frames % top:
            raise AllocationError(
                f"total_frames must be a positive multiple of 2^{max_order}"
            )
        self.total_frames = total_frames
        self.max_order = max_order
        self._free: List[Set[int]] = [set() for _ in range(max_order + 1)]
        self._allocated: Dict[int, int] = {}  # base -> order
        for base in range(0, total_frames, top):
            self._free[max_order].add(base)

    # -- allocate -----------------------------------------------------------------

    def allocate(self, order: int) -> int:
        """Allocate a 2^order-page block; returns its base frame.

        Splits the smallest sufficient block, linking the unused halves
        back onto lower lists, exactly like the kernel buddy system.
        """
        self._check_order(order)
        source = order
        while source <= self.max_order and not self._free[source]:
            source += 1
        if source > self.max_order:
            raise AllocationError(f"out of memory for order-{order} block")
        base = min(self._free[source])  # deterministic choice
        self._free[source].remove(base)
        while source > order:
            source -= 1
            self._free[source].add(base + (1 << source))
        self._allocated[base] = order
        return base

    # -- helpers ------------------------------------------------------------------

    def _check_order(self, order: int) -> None:
        if not 0 <= order <= self.max_order:
            raise AllocationError(
                f"order {order} out of range 0..{self.max_order}"
            )

    def check_invariants(self) -> None:
        """Debug/verification helper: free + allocated tile the region."""
        seen: Set[int] = set()
        for order, blocks in enumerate(self._free):
            for base in blocks:
                if base % (1 << order):
                    raise AllocationError(f"misaligned free block {base}@{order}")
                span = set(range(base, base + (1 << order)))
                if span & seen:
                    raise AllocationError("overlapping free blocks")
                seen |= span
        for base, order in self._allocated.items():
            span = set(range(base, base + (1 << order)))
            if span & seen:
                raise AllocationError("free/allocated overlap")
            seen |= span
        if seen != set(range(self.total_frames)):
            raise AllocationError("free + allocated do not tile the region")
