"""Assorted unit tests: DIN tables, workload validation, address/strip
consistency, report formatting width."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc.strips import is_no_use
from repro.config import PAGES_PER_STRIP
from repro.errors import TraceError
from repro.mem.address import AddressMapper
from repro.pcm.din import _changed_table, _vulnerability_table
from repro.traces.profiles import profile
from repro.traces.workload import Workload
from tests.conftest import make_trace


class TestDINTables:
    def test_vulnerability_bounds(self):
        table = _vulnerability_table()
        assert table.shape == (256, 256)
        assert table.max() <= 8
        assert table.min() == 0

    def test_no_change_no_vulnerability(self):
        """Storing a byte over itself pulses nothing: nothing disturbed."""
        table = _vulnerability_table()
        for value in (0x00, 0xFF, 0xA5, 0x3C):
            assert table[value, value] == 0

    def test_changed_table_is_hamming_distance(self):
        table = _changed_table()
        assert table[0x00, 0xFF] == 8
        assert table[0xA5, 0xA5] == 0
        assert table[0b1, 0b0] == 1

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_changed_symmetric(self, a, b):
        table = _changed_table()
        assert table[a, b] == table[b, a]

    def test_known_vulnerable_pattern(self):
        """old=0b100 (cell 2 set), new=0b000: cell 2 RESET; neighbours
        1 and 3 idle and storing 0 -> 2 vulnerable pairs."""
        table = _vulnerability_table()
        assert table[0b100, 0b000] == 2

    def test_crystalline_neighbour_immune(self):
        """old=0b110, new=0b010: cell 2 RESET; neighbour 1 stores 1 ->
        only neighbour 3 vulnerable."""
        table = _vulnerability_table()
        assert table[0b110, 0b010] == 1


class TestWorkloadValidation:
    def test_profile_count_mismatch(self):
        with pytest.raises(TraceError):
            Workload("x", [make_trace([(False, 0, 0)])], [])

    def test_empty_traces_rejected(self):
        with pytest.raises(TraceError):
            Workload("x", [], [])

    def test_flip_fraction_override(self):
        wl = Workload(
            "x",
            [make_trace([(False, 0, 0)])],
            [profile("mcf")],
            flip_fractions=[0.42],
        )
        assert wl.flip_fractions == [0.42]

    def test_default_flip_fractions_from_profiles(self):
        wl = Workload("x", [make_trace([(False, 0, 0)])], [profile("mcf")])
        assert wl.flip_fractions == [profile("mcf").flip_fraction]


class TestAddressStripConsistency:
    @given(st.integers(0, 16 * 2048 - 1))
    @settings(max_examples=100)
    def test_strip_index_equals_row(self, frame):
        """The controller uses the device row as the strip index; the
        mapper must agree with the strips module's frame arithmetic."""
        mapper = AddressMapper(banks=16, rows_per_bank=2048)
        _, row = mapper.frame_to_bank_row(frame)
        assert frame // PAGES_PER_STRIP == row

    @given(st.integers(0, 16 * 2048 - 1))
    @settings(max_examples=60)
    def test_adjacent_frames_are_adjacent_strips(self, frame):
        mapper = AddressMapper(banks=16, rows_per_bank=2048)
        _, strip = mapper.frame_to_bank_row(frame)
        for nf in (frame - PAGES_PER_STRIP, frame + PAGES_PER_STRIP):
            if 0 <= nf < mapper.total_frames:
                assert abs(mapper.frame_to_bank_row(nf)[1] - strip) == 1

    def test_no_use_strips_never_handed_out_consistency(self):
        """(2:3) marks exactly one strip in three; its frames are exactly
        the 16 frames of device row s where s % 3 == 1 (block-local)."""
        for strip in range(30):
            frames = range(strip * 16, strip * 16 + 16)
            expected = strip % 3 == 1
            assert is_no_use(strip, 2, 3) == expected
            mapper = AddressMapper(banks=16, rows_per_bank=2048)
            for f in frames:
                assert mapper.frame_to_bank_row(f)[1] == strip
