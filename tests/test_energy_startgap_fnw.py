"""Tests for the energy model and Flip-N-Write."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LINE_BITS, LINE_BYTES
from repro.errors import ConfigError
from repro.pcm import line as L
from repro.pcm.flip_n_write import FlipNWriteEncoder
from repro.stats.counters import Counters
from repro.stats.energy import EnergyModel, EnergyReport, energy_report


class TestEnergyModel:
    def test_line_read_energy(self):
        assert EnergyModel().line_read_pj == pytest.approx(2.0 * 512)

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigError):
            EnergyModel(read_pj_per_bit=-1.0)

    def test_report_composition(self):
        c = Counters()
        c.demand_reads = 10
        c.verify_reads = 4
        c.data_cell_writes_demand = 100
        c.data_cell_writes_correction = 10
        c.ecp_cell_writes_wd = 20
        report = energy_report(c)
        assert report.demand_read_pj == pytest.approx(10 * 1024.0)
        assert report.correction_pj == pytest.approx(10 * 19.2)
        assert report.total_pj == pytest.approx(
            report.demand_read_pj
            + report.verification_read_pj
            + report.demand_write_pj
            + report.correction_pj
            + report.ecp_entry_pj
        )
        assert 0.0 < report.wd_overhead_fraction < 1.0

    def test_empty_counters_zero(self):
        report = energy_report(Counters())
        assert report.total_pj == 0.0
        assert report.wd_overhead_fraction == 0.0

    def test_per_access(self):
        c = Counters()
        c.demand_reads = 4
        report = energy_report(c)
        # One 512-bit line read at 2 pJ/bit per access.
        assert report.demand_read_pj == pytest.approx(4 * 1024.0)
        assert report.total_pj == pytest.approx(4 * EnergyModel().line_read_pj)


lines = st.integers(min_value=0, max_value=L.MASK_ALL)


class TestFlipNWrite:
    @given(lines, lines)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, physical, data):
        enc = FlipNWriteEncoder()
        result = enc.encode(physical, data)
        assert enc.decode(result.stored, result.flags) == data

    @given(lines, lines)
    @settings(max_examples=60, deadline=None)
    def test_never_writes_more_than_raw(self, physical, data):
        result = FlipNWriteEncoder().encode(physical, data)
        assert result.cells_written_raw == (physical ^ data).bit_count()
        assert result.cells_written_encoded <= result.cells_written_raw

    @given(lines, lines)
    @settings(max_examples=60, deadline=None)
    def test_half_flip_bound(self, physical, data):
        """[7]'s guarantee: at most half the cells (plus flags) flip."""
        result = FlipNWriteEncoder().encode(physical, data)
        assert result.cells_written_encoded <= LINE_BITS // 2 + LINE_BYTES

    def test_adversarial_inversion(self):
        """Writing the complement of the current contents must invert."""
        result = FlipNWriteEncoder().encode(0, L.MASK_ALL)
        # Inverting stores all-zeros over all-zeros: only flag cells flip.
        assert result.stored == 0
        assert result.cells_written_encoded == 64
        assert result.flags == (1 << 64) - 1
