"""Tests for line mask utilities — the simulator's bit-twiddling kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import LINE_BITS
from repro.pcm import line as L

positions = st.lists(
    st.integers(min_value=0, max_value=LINE_BITS - 1), unique=True, max_size=64
)


def bits(*cells: int) -> int:
    """The line mask with ``cells`` set."""
    return sum(1 << p for p in set(cells))


class TestBasics:
    @given(positions)
    def test_positions_roundtrip(self, pos):
        mask = bits(*pos)
        assert L.bit_positions_int(mask) == sorted(pos)
        assert mask.bit_count() == len(pos)

    def test_full_line(self):
        assert L.MASK_ALL.bit_count() == LINE_BITS
        assert L.bit_positions_int(L.MASK_ALL) == list(range(LINE_BITS))


class TestShifts:
    def test_shift_does_not_cross_word_boundary(self):
        """Word-line adjacency exists only within a chip's 64-bit segment."""
        assert L.bit_positions_int(L.wordline_neighbours_int(bits(63))) == [62]
        assert L.bit_positions_int(L.wordline_neighbours_int(bits(64))) == [65]

    def test_wordline_neighbours_interior(self):
        assert L.bit_positions_int(L.wordline_neighbours_int(bits(10))) == [9, 11]

    @given(positions)
    def test_neighbour_count_bounded(self, pos):
        neighbours = L.wordline_neighbours_int(bits(*pos))
        assert neighbours.bit_count() <= 2 * len(pos)
        assert neighbours & ~L.MASK_ALL == 0


class TestSampling:
    def test_probability_zero_empty(self, rng):
        assert L.sample_mask_int(L.MASK_ALL, 0.0, rng) == 0

    def test_probability_one_identity(self, rng):
        mask = bits(1, 5, 100, 511)
        assert L.sample_mask_int(mask, 1.0, rng) == mask

    def test_subset_of_candidates(self, rng):
        mask = bits(*range(0, 512, 3))
        out = L.sample_mask_int(mask, 0.5, rng)
        assert out & ~mask == 0

    def test_empirical_rate(self, rng):
        """Sampling the full line many times approximates the probability."""
        p = 0.115
        total = 0
        trials = 200
        for _ in range(trials):
            total += L.sample_mask_int(L.MASK_ALL, p, rng).bit_count()
        mean = total / (trials * LINE_BITS)
        assert mean == pytest.approx(p, rel=0.15)

    def test_empty_candidates(self, rng):
        assert L.sample_mask_int(0, 0.9, rng) == 0
