"""Tests for the lazily materialised PCM cell array."""

from __future__ import annotations

import pytest

from repro.errors import DeviceError
from repro.pcm import line as L
from repro.pcm.array import PCMArray


@pytest.fixture
def array() -> PCMArray:
    return PCMArray(banks=4, rows_per_bank=16, seed=1)


ADDR = (1, 5, 3)


class TestMaterialisation:
    def test_lazy(self, array):
        assert array._pristine == {}
        array.stored_int(ADDR)
        assert list(array._pristine) == [(1, 5)]

    def test_deterministic_contents(self):
        a = PCMArray(4, 16, seed=9)
        b = PCMArray(4, 16, seed=9)
        assert a.stored_int(ADDR) == b.stored_int(ADDR)

    def test_different_seed_differs(self):
        a = PCMArray(4, 16, seed=9)
        b = PCMArray(4, 16, seed=10)
        assert a.stored_int(ADDR) != b.stored_int(ADDR)

    def test_out_of_range_rejected(self, array):
        with pytest.raises(DeviceError):
            array.stored_int((4, 0, 0))
        with pytest.raises(DeviceError):
            array.stored_int((0, 16, 0))
        with pytest.raises(DeviceError):
            array.stored_int((0, 0, 64))


class TestDisturbAndCorrect:
    def test_disturb_only_flips_zero_cells(self, array):
        stored = array.stored_int(ADDR)
        new = array.disturb_int(ADDR, L.MASK_ALL)
        # Exactly the cells storing 0 were flipped.
        assert new == (stored ^ L.MASK_ALL).bit_count()
        array.check_invariants(ADDR)
        stored, disturbed = array.line_ints(ADDR)
        assert stored | disturbed == L.MASK_ALL

    def test_disturb_idempotent(self, array):
        mask = 0b1111
        first = array.disturb_int(ADDR, mask)
        second = array.disturb_int(ADDR, mask)
        assert second == 0
        assert first >= 0

    def test_correct_clears_all(self, array):
        """A correction RESETs the flips: the line commits with none left."""
        array.disturb_int(ADDR, L.MASK_ALL)
        stored, disturbed = array.line_ints(ADDR)
        assert disturbed
        array.commit_line(ADDR, stored, 0)
        assert array.line_ints(ADDR) == (stored, 0)

    def test_correct_with_mask(self, array):
        stored = array.stored_int(ADDR)
        zeros = L.bit_positions_int(stored ^ L.MASK_ALL)[:4]
        array.disturb_int(ADDR, sum(1 << p for p in zeros))
        corrected = sum(1 << p for p in zeros[:2])
        disturbed = array.disturbed_int(ADDR)
        array.commit_line(ADDR, stored, disturbed & ~corrected)
        assert array.disturbed_int(ADDR).bit_count() == len(zeros) - 2


class TestIntDomain:
    def test_disturbed_lines_lists_only_outstanding_flips(self, array):
        assert list(array.disturbed_lines()) == []
        array.disturb_int(ADDR, L.MASK_ALL)
        [(addr, stored, disturbed)] = array.disturbed_lines()
        assert addr == ADDR and type(addr) is tuple
        assert (stored, disturbed) == array.line_ints(ADDR)
        assert stored & disturbed == 0 and stored | disturbed == L.MASK_ALL
        array.commit_line(ADDR, stored, 0)
        assert list(array.disturbed_lines()) == []

    def test_line_address_is_its_own_key(self, array):
        # A line address is a plain (bank, row, line) tuple: any equal
        # tuple reaches the same line state.
        array.disturb_int(ADDR, L.MASK_ALL)
        bank, row, line = ADDR
        assert array.line_ints((bank, row, line)) == array.line_ints(ADDR)
        assert array.disturbed_int((bank, row, line)) != 0


class TestCommitLine:
    def test_commit_clears_disturbance(self, array):
        array.disturb_int(ADDR, L.MASK_ALL)
        new = (1 << 10) | (1 << 20)
        array.commit_line(ADDR, new, 0, flags=0x5)
        assert array.line_ints(ADDR) == (new, 0)
        assert array.line_flags(ADDR) == 0x5


class TestAdjacency:
    def test_interior_neighbours(self, array):
        nbs = list(array.bitline_neighbours(ADDR))
        assert nbs == [(1, 4, 3), (1, 6, 3)]

    def test_top_edge(self, array):
        nbs = list(array.bitline_neighbours((0, 0, 0)))
        assert nbs == [(0, 1, 0)]

    def test_bottom_edge(self, array):
        nbs = list(array.bitline_neighbours((0, 15, 7)))
        assert nbs == [(0, 14, 7)]
