"""Tests for the lazily materialised PCM cell array and its line records."""

from __future__ import annotations

import pytest

from repro.errors import DeviceError
from repro.pcm import line as L
from repro.pcm.array import PCMArray


@pytest.fixture
def array() -> PCMArray:
    return PCMArray(banks=4, rows_per_bank=16, seed=1)


ADDR = (1, 5, 3)


def line_ints(array, addr):
    """``(stored, disturbed)`` of a line's record."""
    record = array.line(addr)
    return record.stored, record.disturbed


class TestMaterialisation:
    def test_lazy(self, array):
        assert array._pristine == {}
        record = array.line(ADDR)
        assert list(array._pristine) == [(1, 5)]
        assert array.lines == {ADDR: record}
        assert array.line(ADDR) is record

    def test_deterministic_contents(self):
        a = PCMArray(4, 16, seed=9)
        b = PCMArray(4, 16, seed=9)
        assert a.line(ADDR).stored == b.line(ADDR).stored

    def test_different_seed_differs(self):
        a = PCMArray(4, 16, seed=9)
        b = PCMArray(4, 16, seed=10)
        assert a.line(ADDR).stored != b.line(ADDR).stored

    def test_out_of_range_rejected(self, array):
        with pytest.raises(DeviceError):
            array.line((4, 0, 0))
        with pytest.raises(DeviceError):
            array.line((0, 16, 0))
        with pytest.raises(DeviceError):
            array.line((0, 0, 64))
        assert array.lines == {}
        # A row already touched still checks the line index.
        array.line((0, 0, 0))
        for line in (64, -1):
            with pytest.raises(DeviceError):
                array.line((0, 0, line))
        assert list(array.lines) == [(0, 0, 0)]


class TestDisturbAndCorrect:
    def test_disturb_only_flips_zero_cells(self, array):
        stored = array.line(ADDR).stored
        new = array.disturb_int(ADDR, L.MASK_ALL)
        # Exactly the cells storing 0 were flipped.
        assert new == (stored ^ L.MASK_ALL).bit_count()
        array.check_invariants(ADDR)
        stored, disturbed = line_ints(array, ADDR)
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
        stored, disturbed = line_ints(array, ADDR)
        assert disturbed
        array.line(ADDR).disturbed = 0
        assert line_ints(array, ADDR) == (stored, 0)

    def test_correct_with_mask(self, array):
        stored = array.line(ADDR).stored
        zeros = L.bit_positions_int(stored ^ L.MASK_ALL)[:4]
        array.disturb_int(ADDR, sum(1 << p for p in zeros))
        corrected = sum(1 << p for p in zeros[:2])
        array.line(ADDR).disturbed &= ~corrected
        assert array.line(ADDR).disturbed.bit_count() == len(zeros) - 2


class TestIntDomain:
    def test_disturbed_lines_lists_only_outstanding_flips(self, array):
        assert list(array.disturbed_lines()) == []
        array.disturb_int(ADDR, L.MASK_ALL)
        [(addr, stored, disturbed)] = array.disturbed_lines()
        assert addr == ADDR and type(addr) is tuple
        assert (stored, disturbed) == line_ints(array, ADDR)
        assert stored & disturbed == 0 and stored | disturbed == L.MASK_ALL
        array.line(ADDR).disturbed = 0
        assert list(array.disturbed_lines()) == []

    def test_line_address_is_its_own_key(self, array):
        # A line address is a plain (bank, row, line) tuple: any equal
        # tuple reaches the same line state.
        array.disturb_int(ADDR, L.MASK_ALL)
        bank, row, line = ADDR
        assert array.line((bank, row, line)) is array.line(ADDR)
        assert array.line((bank, row, line)).disturbed != 0


class TestCommitLine:
    def test_commit_clears_disturbance(self, array):
        """A commit rewrites the record's fields in place: the line reads
        back the new state and leaves the disturbed set."""
        array.disturb_int(ADDR, L.MASK_ALL)
        record = array.line(ADDR)
        new = (1 << 10) | (1 << 20)
        record.stored, record.disturbed, record.flags = new, 0, 0x5
        assert line_ints(array, ADDR) == (new, 0)
        assert array.line(ADDR).flags == 0x5
        assert list(array.disturbed_lines()) == []
        array.check_invariants(ADDR)


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
