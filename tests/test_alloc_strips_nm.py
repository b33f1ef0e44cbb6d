"""Tests for strip marking and the (n:m) allocator manager (Section 4.4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc.nm_alloc import NMAllocManager
from repro.alloc.strips import (
    PAGES_PER_BLOCK,
    STRIPS_PER_BLOCK,
    adjacent_usage,
    is_no_use,
    no_use_positions,
    usable_fraction,
    used_strips_in_block,
    validate_ratio,
)
from repro.config import PAGES_PER_STRIP
from repro.errors import AllocationError

ratios = st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
    lambda nm: nm[0] <= nm[1]
)


class TestStripMarking:
    def test_paper_2_3_example(self):
        """(2:3) marks the 2nd strip of each 3-strip group."""
        assert not is_no_use(0, 2, 3)
        assert is_no_use(1, 2, 3)
        assert not is_no_use(2, 2, 3)
        assert not is_no_use(3, 2, 3)
        assert is_no_use(4, 2, 3)

    def test_1_2_alternates(self):
        for s in range(20):
            assert is_no_use(s, 1, 2) == (s % 2 == 1)

    def test_1_1_marks_nothing(self):
        assert no_use_positions(1, 1) == frozenset()
        assert not any(is_no_use(s, 1, 1) for s in range(100))

    def test_groups_restart_at_block_boundary(self):
        """A group never spans a 64 MB block boundary."""
        last_of_block = STRIPS_PER_BLOCK - 1           # 1023 % 3 == 1 locally
        first_of_next = STRIPS_PER_BLOCK               # local index 0 -> used
        assert not is_no_use(first_of_next, 2, 3)
        assert is_no_use(first_of_next + 1, 2, 3)

    def test_usable_fraction(self):
        assert usable_fraction(1, 2) == pytest.approx(0.5, abs=0.001)
        assert usable_fraction(2, 3) == pytest.approx(2 / 3, abs=0.001)
        assert usable_fraction(1, 1) == 1.0

    @given(ratios)
    def test_usable_fraction_close_to_n_over_m(self, nm):
        n, m = nm
        assert usable_fraction(n, m) == pytest.approx(n / m, abs=0.01)

    def test_bad_ratio(self):
        with pytest.raises(AllocationError):
            no_use_positions(3, 2)
        with pytest.raises(AllocationError):
            no_use_positions(0, 2)


class TestAdjacentUsage:
    def test_2_3_figure9_rule(self):
        # strip 0 (mod 3 == 0): top forced (block edge), bottom is no-use.
        assert adjacent_usage(0, 2, 3) == (True, False)
        # strip 2 (mod 3 == 2): top no-use, bottom used.
        assert adjacent_usage(2, 2, 3) == (False, True)
        # strip 3 (mod 3 == 0): top used (strip 2), bottom no-use.
        assert adjacent_usage(3, 2, 3) == (True, False)

    def test_1_2_interior_never_verifies(self):
        assert adjacent_usage(2, 1, 2) == (False, False)
        assert adjacent_usage(4, 1, 2) == (False, False)

    def test_block_edges_forced(self):
        assert adjacent_usage(0, 1, 2)[0] is True
        last = STRIPS_PER_BLOCK - 2  # local 1022, even -> used under (1:2)
        assert adjacent_usage(last, 1, 2) == (False, False)

    def test_1_1_always_both(self):
        for s in (0, 1, 7, STRIPS_PER_BLOCK - 1):
            top, bottom = adjacent_usage(s, 1, 1)
            assert top and bottom

    def test_no_use_strip_rejected(self):
        with pytest.raises(AllocationError):
            adjacent_usage(1, 2, 3)

    @given(ratios, st.integers(0, 4 * STRIPS_PER_BLOCK - 1))
    @settings(max_examples=200)
    def test_used_neighbours_always_verified(self, nm, strip):
        """Safety property: every *used* neighbour of a used strip is
        verified — no disturbance into live data can go undetected."""
        n, m = nm
        if is_no_use(strip, n, m):
            return
        verify_top, verify_bottom = adjacent_usage(strip, n, m)
        local = strip % STRIPS_PER_BLOCK
        if local > 0 and not is_no_use(strip - 1, n, m):
            assert verify_top
        if local < STRIPS_PER_BLOCK - 1 and not is_no_use(strip + 1, n, m):
            assert verify_bottom


class TestNMAllocManager:
    def make(self):
        # 4 x 64 MB of frames.
        return NMAllocManager(total_frames=4 * PAGES_PER_BLOCK)

    def test_1_1_dense_allocation(self):
        mgr = self.make()
        frames = [mgr.allocate_frame(1, 1) for _ in range(32)]
        assert len(set(frames)) == 32

    def test_1_2_avoids_no_use_strips(self):
        mgr = self.make()
        frames = [mgr.allocate_frame(1, 2) for _ in range(200)]
        assert len(set(frames)) == 200
        for f in frames:
            assert not is_no_use(f // PAGES_PER_STRIP, 1, 2)

    def test_2_3_avoids_no_use_strips(self):
        mgr = self.make()
        frames = [mgr.allocate_frame(2, 3) for _ in range(500)]
        for f in frames:
            assert not is_no_use(f // PAGES_PER_STRIP, 2, 3)

    def test_strip_allocation(self):
        """Frames are carved in order from one used strip at a time."""
        mgr = self.make()
        frames = [mgr.allocate_frame(1, 2) for _ in range(2 * PAGES_PER_STRIP)]
        base = frames[0]
        assert base % PAGES_PER_STRIP == 0
        assert not is_no_use(base // PAGES_PER_STRIP, 1, 2)
        assert frames[:PAGES_PER_STRIP] == list(range(base, base + PAGES_PER_STRIP))
        assert frames[PAGES_PER_STRIP] % PAGES_PER_STRIP == 0

    def test_mixed_allocators_disjoint(self):
        mgr = self.make()
        a = {mgr.allocate_frame(1, 2) for _ in range(100)}
        b = {mgr.allocate_frame(2, 3) for _ in range(100)}
        c = {mgr.allocate_frame(1, 1) for _ in range(100)}
        assert not (a & b) and not (a & c) and not (b & c)

    def test_exhaustion(self):
        mgr = NMAllocManager(total_frames=PAGES_PER_BLOCK)
        # (1:2) usable = half the block; allocating beyond must fail.
        usable = PAGES_PER_BLOCK // 2
        for _ in range(usable):
            mgr.allocate_frame(1, 2)
        with pytest.raises(AllocationError):
            mgr.allocate_frame(1, 2)


def _reference_no_use(strip: int, n: int, m: int) -> bool:
    """Section 4.4's marking from first principles: the group-local
    positions 1 .. m-n of each block-local m-strip group are no-use."""
    return 1 <= (strip % STRIPS_PER_BLOCK) % m <= m - n


class TestMemoisedMarking:
    """``no_use_positions``, ``validate_ratio`` and ``used_strips_in_block``
    are memoised per (n, m); the marking and the Figure 9 rule must not
    change with it."""

    @pytest.mark.parametrize("nm", [(1, 1), (2, 3), (1, 2), (1, 4)])
    def test_every_block_local_strip_unchanged(self, nm):
        n, m = nm
        for _ in range(2):  # the second pass runs on warm caches
            for strip in range(STRIPS_PER_BLOCK + 2):
                no_use = _reference_no_use(strip, n, m)
                assert is_no_use(strip, n, m) == no_use
                if no_use:
                    with pytest.raises(AllocationError):
                        adjacent_usage(strip, n, m)
                    continue
                local = strip % STRIPS_PER_BLOCK
                want = (
                    local == 0 or not _reference_no_use(strip - 1, n, m),
                    local == STRIPS_PER_BLOCK - 1
                    or not _reference_no_use(strip + 1, n, m),
                )
                assert adjacent_usage(strip, n, m) == want
        assert no_use_positions(n, m) is no_use_positions(n, m)

    @pytest.mark.parametrize("nm", [(1, 1), (2, 3), (1, 2), (1, 4)])
    def test_used_strips_match_the_marking(self, nm):
        """One shared, immutable tuple per (n, m): every strip of a block
        that the marking keeps, in order."""
        n, m = nm
        used = used_strips_in_block(n, m)
        assert used == tuple(s for s in range(STRIPS_PER_BLOCK)
                             if not _reference_no_use(s, n, m))
        assert used_strips_in_block(n, m) is used

    @pytest.mark.parametrize("nm", [(3, 2), (0, 2), (0, 0), (-1, 4)])
    def test_bad_ratios_raise_on_every_call(self, nm):
        for _ in range(2):
            with pytest.raises(AllocationError):
                validate_ratio(*nm)
            with pytest.raises(AllocationError):
                no_use_positions(*nm)
            with pytest.raises(AllocationError):
                is_no_use(5, *nm)
            with pytest.raises(AllocationError):
                used_strips_in_block(*nm)
