"""Strip marking maths for (n:m)-Alloc (Section 4.4).

A *strip* is 16 consecutive page frames (one device row across all banks).
(n:m)-Alloc uses n out of every m consecutive strips and marks the rest
no-use, re-grouping at every 64 MB block boundary ("a group may span a
32 MB boundary but never a 64 MB boundary").

Following the paper's (2:3) example — "a (2:3) allocator marks the 2nd strip
of each 3-strip group" — the no-use positions within a group are the
contiguous run starting at position 1: for (2:3) that is {1}, for (1:2)
{1}, for (1:4) {1, 2, 3}.  This placement guarantees that every *used*
strip's used neighbours are exactly the neighbours the controller is told
to verify (Figure 9), with the conservative block-edge rule: the first
strip of a 64 MB block always verifies its top neighbour and the last strip
its bottom neighbour.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Tuple

from ..config import PAGES_PER_STRIP, PAGE_BYTES
from ..errors import AllocationError

#: Strips per 64 MB allocation block.
BLOCK_BYTES = 64 << 20
STRIPS_PER_BLOCK = BLOCK_BYTES // (PAGE_BYTES * PAGES_PER_STRIP)
PAGES_PER_BLOCK = BLOCK_BYTES // PAGE_BYTES


@lru_cache(maxsize=None)
def validate_ratio(n: int, m: int) -> None:
    """Raise :class:`AllocationError` unless ``0 < n <= m``.

    Memoised per ``(n, m)``: a valid ratio is checked once, and a bad
    one raises on every call (``lru_cache`` keeps no exceptions).
    """
    if not 0 < n <= m:
        raise AllocationError(f"(n:m) requires 0 < n <= m, got ({n}:{m})")


@lru_cache(maxsize=None)
def no_use_positions(n: int, m: int) -> FrozenSet[int]:
    """Group-local positions marked no-use: {1 .. m-n} (empty for n == m).

    Memoised per ``(n, m)``; the frozenset is immutable, so callers
    share it.
    """
    validate_ratio(n, m)
    return frozenset(range(1, 1 + (m - n)))


def block_local_index(strip: int) -> int:
    """A strip's index within its 64 MB block."""
    if strip < 0:
        raise AllocationError(f"negative strip {strip}")
    return strip % STRIPS_PER_BLOCK


def is_no_use(strip: int, n: int, m: int) -> bool:
    """Whether (n:m)-Alloc marks this strip no-use."""
    if n == m:
        validate_ratio(n, m)
        return False
    return block_local_index(strip) % m in no_use_positions(n, m)


@lru_cache(maxsize=None)
def used_strips_in_block(n: int, m: int) -> Tuple[int, ...]:
    """Block-local indices of the used strips of one 64 MB block.

    Memoised per ``(n, m)`` (an allocator asks once per block it pulls);
    the tuple is immutable, so callers share it.
    """
    no_use = no_use_positions(n, m)
    return tuple(s for s in range(STRIPS_PER_BLOCK) if s % m not in no_use)


def usable_fraction(n: int, m: int) -> float:
    """Fraction of capacity (n:m)-Alloc keeps usable, exactly per block."""
    return len(used_strips_in_block(n, m)) / STRIPS_PER_BLOCK


def adjacent_usage(strip: int, n: int, m: int) -> Tuple[bool, bool]:
    """Which adjacent strips of a *used* strip must be verified on write.

    Returns ``(verify_top, verify_bottom)`` per the Figure 9 controller
    rule, including the conservative block-edge behaviour: first/last
    strips of a 64 MB block always verify their outward neighbour, because
    the neighbouring block may belong to a different allocator.
    """
    if is_no_use(strip, n, m):
        raise AllocationError(f"strip {strip} is no-use under ({n}:{m})")
    local = block_local_index(strip)
    if local == 0:
        verify_top = True
    else:
        verify_top = not is_no_use(strip - 1, n, m)
    if local == STRIPS_PER_BLOCK - 1:
        verify_bottom = True
    else:
        verify_bottom = not is_no_use(strip + 1, n, m)
    return verify_top, verify_bottom
