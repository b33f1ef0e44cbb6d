"""Tests (incl. property-based) for the buddy allocator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc.buddy import BuddyAllocator
from repro.errors import AllocationError


def make(frames=1 << 6, order=4):
    return BuddyAllocator(frames, max_order=order)


def drain(b: BuddyAllocator, order: int) -> list:
    """Allocate order-``order`` blocks until the allocator runs dry."""
    bases = []
    while True:
        try:
            bases.append(b.allocate(order))
        except AllocationError:
            return bases


class TestBasics:
    def test_initial_free(self):
        b = make()
        # Seeded as four free max-order blocks tiling all 64 frames.
        assert drain(b, 4) == [0, 16, 32, 48]
        b.check_invariants()

    def test_allocate_splits(self):
        b = make()
        base = b.allocate(0)
        assert base == 0
        # One order-4 block split: the buddies of sizes 1, 2, 4 and 8 are
        # free, and the other three order-4 blocks stay whole.
        assert [b.allocate(k) for k in (0, 1, 2, 3)] == [1, 2, 4, 8]
        assert drain(b, 4) == [16, 32, 48]

    def test_alignment(self):
        b = make()
        for order in (0, 1, 2, 3):
            base = b.allocate(order)
            assert base % (1 << order) == 0

    def test_out_of_memory(self):
        b = make(frames=16, order=4)
        b.allocate(4)
        with pytest.raises(AllocationError):
            b.allocate(0)

    def test_misaligned_region_rejected(self):
        with pytest.raises(AllocationError):
            BuddyAllocator(100, max_order=4)


#: A random sequence of block orders to allocate (nothing frees a block).
alloc_script = st.lists(st.integers(0, 4), max_size=60)


class TestProperties:
    @given(alloc_script)
    @settings(max_examples=100, deadline=None)
    def test_invariants_under_random_script(self, script):
        b = BuddyAllocator(1 << 7, max_order=5)
        for order in script:
            try:
                b.allocate(order)
            except AllocationError:
                continue
            b.check_invariants()

    @given(alloc_script)
    @settings(max_examples=50, deadline=None)
    def test_no_overlapping_allocations(self, script):
        b = BuddyAllocator(1 << 7, max_order=5)
        live: list[tuple[int, int]] = []
        for order in script:
            try:
                base = b.allocate(order)
            except AllocationError:
                continue
            span = set(range(base, base + (1 << order)))
            for other_base, other_order in live:
                other = set(range(other_base, other_base + (1 << other_order)))
                assert not (span & other)
            live.append((base, order))
