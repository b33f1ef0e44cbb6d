"""Tests for the lazily materialised PCM cell array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.pcm import line as L
from repro.pcm.array import LineAddress, PCMArray


@pytest.fixture
def array() -> PCMArray:
    return PCMArray(banks=4, rows_per_bank=16, seed=1)


ADDR = LineAddress(bank=1, row=5, line=3)


class TestMaterialisation:
    def test_lazy(self, array):
        assert array.materialised_rows == 0
        array.stored_line(ADDR)
        assert array.materialised_rows == 1
        assert array.is_materialised(1, 5)
        assert not array.is_materialised(0, 0)

    def test_deterministic_contents(self):
        a = PCMArray(4, 16, seed=9)
        b = PCMArray(4, 16, seed=9)
        assert np.array_equal(a.stored_line(ADDR), b.stored_line(ADDR))

    def test_different_seed_differs(self):
        a = PCMArray(4, 16, seed=9)
        b = PCMArray(4, 16, seed=10)
        assert not np.array_equal(a.stored_line(ADDR), b.stored_line(ADDR))

    def test_out_of_range_rejected(self, array):
        with pytest.raises(DeviceError):
            array.stored_line(LineAddress(4, 0, 0))
        with pytest.raises(DeviceError):
            array.stored_line(LineAddress(0, 16, 0))
        with pytest.raises(DeviceError):
            array.stored_line(LineAddress(0, 0, 64))


class TestDisturbAndCorrect:
    def test_disturb_only_flips_zero_cells(self, array):
        stored = array.stored_line(ADDR)
        mask = L.full_line()
        new = array.disturb(ADDR, mask)
        # Exactly the cells storing 0 were flipped.
        assert new == L.popcount(~stored)
        array.check_invariants(ADDR)
        assert np.array_equal(array.physical_line(ADDR), L.full_line())

    def test_disturb_idempotent(self, array):
        mask = L.mask_from_positions([0, 1, 2, 3])
        first = array.disturb(ADDR, mask)
        second = array.disturb(ADDR, mask)
        assert second == 0
        assert first >= 0

    def test_correct_clears_all(self, array):
        array.disturb(ADDR, L.full_line())
        cleared = array.correct(ADDR)
        assert cleared > 0
        assert L.popcount(array.disturbed_mask(ADDR)) == 0
        assert np.array_equal(array.physical_line(ADDR), array.stored_line(ADDR))

    def test_correct_with_mask(self, array):
        stored = array.stored_line(ADDR).copy()
        zeros = L.bit_positions((~stored).astype(L.WORD_DTYPE))[:4]
        array.disturb(ADDR, L.mask_from_positions(zeros))
        cleared = array.correct(ADDR, L.mask_from_positions(zeros[:2]))
        assert cleared == 2
        assert L.popcount(array.disturbed_mask(ADDR)) == len(zeros) - 2


class TestIntDomain:
    def test_disturbed_lines_lists_only_outstanding_flips(self, array):
        assert list(array.disturbed_lines()) == []
        array.disturb(ADDR, L.full_line())
        [(addr, stored, disturbed)] = array.disturbed_lines()
        assert addr == ADDR and isinstance(addr, LineAddress)
        assert stored == L.to_int(array.stored_line(ADDR))
        assert disturbed == L.to_int(array.disturbed_mask(ADDR))
        assert stored & disturbed == 0 and stored | disturbed == L.MASK_ALL
        array.correct(ADDR)
        assert list(array.disturbed_lines()) == []

    def test_numpy_views_are_copies(self, array):
        view = array.stored_line(ADDR)
        view[0] ^= np.uint64(1)
        assert not np.array_equal(view, array.stored_line(ADDR))

    def test_line_address_is_its_own_key(self):
        assert ADDR == (1, 5, 3) and hash(ADDR) == hash((1, 5, 3))
        bank, row, line = ADDR
        assert (bank, row, line) == (ADDR.bank, ADDR.row, ADDR.line)


class TestSetLine:
    def test_set_line_clears_disturbance(self, array):
        array.disturb(ADDR, L.full_line())
        new = L.mask_from_positions([10, 20])
        array.set_line(ADDR, new, flags=0x5)
        assert np.array_equal(array.stored_line(ADDR), new)
        assert L.popcount(array.disturbed_mask(ADDR)) == 0
        assert array.line_flags(ADDR) == 0x5


class TestAdjacency:
    def test_interior_neighbours(self, array):
        nbs = list(array.bitline_neighbours(ADDR))
        assert nbs == [LineAddress(1, 4, 3), LineAddress(1, 6, 3)]

    def test_top_edge(self, array):
        nbs = list(array.bitline_neighbours(LineAddress(0, 0, 0)))
        assert nbs == [LineAddress(0, 1, 0)]

    def test_bottom_edge(self, array):
        nbs = list(array.bitline_neighbours(LineAddress(0, 15, 7)))
        assert nbs == [LineAddress(0, 14, 7)]

    def test_line_address_neighbour_helper(self):
        assert ADDR.neighbour(-1) == LineAddress(1, 4, 3)
        assert LineAddress(0, 0, 0).neighbour(-1) is None
