"""Tests for the Figure 6 address mapping."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import LINE_BYTES, LINES_PER_PAGE, PAGES_PER_STRIP, PAGE_BYTES
from repro.errors import DeviceError
from repro.mem.address import AddressMapper
from repro.pcm.array import PCMArray


@pytest.fixture
def mapper() -> AddressMapper:
    return AddressMapper(banks=16, rows_per_bank=1024)


class TestFrameMapping:
    def test_interleaving(self, mapper):
        """Consecutive frames land in consecutive banks (Figure 6 / [17])."""
        banks = [mapper.frame_to_bank_row(f)[0] for f in range(16)]
        assert banks == list(range(16))

    def test_adjacent_frames_16_apart(self, mapper):
        bank, row = mapper.frame_to_bank_row(100)
        assert mapper.frame_to_bank_row(84) == (bank, row - 1)
        assert mapper.frame_to_bank_row(116) == (bank, row + 1)
        assert mapper.frame_to_bank_row(5) == (5, 0)  # top edge: no row above

    def test_adjacency_is_row_adjacency(self, mapper):
        f = 100
        bank, row = mapper.frame_to_bank_row(f)
        for nf in (f - PAGES_PER_STRIP, f + PAGES_PER_STRIP):
            nbank, nrow = mapper.frame_to_bank_row(nf)
            assert nbank == bank
            assert abs(nrow - row) == 1

    @given(st.integers(0, 16 * 1024 - 1))
    def test_roundtrip(self, frame):
        mapper = AddressMapper(banks=16, rows_per_bank=1024)
        bank, row = mapper.frame_to_bank_row(frame)
        assert row * mapper.banks + bank == frame

    def test_strip_is_row(self, mapper):
        for frame in (0, 15, 16, 31, 160):
            _, row = mapper.frame_to_bank_row(frame)
            assert frame // PAGES_PER_STRIP == row

    def test_out_of_range(self, mapper):
        with pytest.raises(DeviceError):
            mapper.frame_to_bank_row(16 * 1024)


class TestLineMapping:
    def test_line_address(self, mapper):
        addr = (*mapper.frame_to_bank_row(17), 5)
        assert addr == (1, 1, 5)

    def test_physical_byte_address(self, mapper):
        """A byte address splits into its page and its line in the page,
        as the engine's replay columns split it."""
        byte_addr = 17 * PAGE_BYTES + 5 * LINE_BYTES
        page, line = byte_addr >> 12, (byte_addr >> 6) % LINES_PER_PAGE
        assert (*mapper.frame_to_bank_row(page), line) == (
            (1, 1, 5))

    def test_bad_line_rejected(self, mapper):
        array = PCMArray(mapper.banks, mapper.rows_per_bank)
        with pytest.raises(DeviceError):
            array.line((0, 0, LINES_PER_PAGE))

    def test_non_16_bank_layout_rejected(self):
        with pytest.raises(DeviceError):
            AddressMapper(banks=8, rows_per_bank=100)
