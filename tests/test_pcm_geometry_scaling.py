"""Tests for cell geometry arithmetic (Fig. 1, §6.1) and node scaling."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.pcm.geometry import (
    DIN_ENHANCED,
    PROTOTYPE,
    SUPER_DENSE,
    CellGeometry,
    array_density_to_chip_reduction,
    big_chip_comparison,
    capacity_for_equal_array_area,
    chip_count_comparison,
)
from repro.pcm.scaling import ScalingModel, minimum_safe_pitch
from repro.pcm.thermal import Medium


class TestCellSizes:
    def test_figure1_cell_areas(self):
        assert SUPER_DENSE.cell_area_f2 == 4.0
        assert DIN_ENHANCED.cell_area_f2 == 8.0
        assert PROTOTYPE.cell_area_f2 == 12.0

    def test_density_ratios(self):
        assert SUPER_DENSE.density_vs(DIN_ENHANCED) == 2.0
        assert SUPER_DENSE.density_vs(PROTOTYPE) == 3.0
        assert DIN_ENHANCED.density_vs(PROTOTYPE) == pytest.approx(1.5)

    def test_prototype_capacity_fraction(self):
        """The prototype achieves only 33% of the ideal array capacity."""
        assert PROTOTYPE.density_vs(SUPER_DENSE) == pytest.approx(1 / 3)

    def test_overlapping_pitch_rejected(self):
        with pytest.raises(ConfigError):
            CellGeometry("bad", 1.5, 2.0)


class TestSection61:
    def test_80_percent_capacity_gain(self):
        cap = capacity_for_equal_array_area()
        assert cap["capacity_gain"] == pytest.approx(0.80, abs=0.005)
        assert cap["sd_pcm_gb"] == 4.0
        assert cap["din_gb"] == pytest.approx(2.22, abs=0.01)

    def test_chip_counts(self):
        chips = chip_count_comparison()
        assert chips["din_chips"] == 18
        assert chips["sd_pcm_chips"] == 10

    def test_big_chip_reduction_about_20_percent(self):
        big = big_chip_comparison()
        assert big["size_reduction"] == pytest.approx(0.20, abs=0.02)
        assert big["small_chip_area"] == pytest.approx(0.767, abs=0.001)

    def test_density_to_chip_reduction(self):
        # 100% density gain halves the array: 46.6% * 50% = 23.3%.
        assert array_density_to_chip_reduction(1.0) == pytest.approx(0.233)
        with pytest.raises(ConfigError):
            array_density_to_chip_reduction(-1.0)


class TestScalingModel:
    def test_profile_at_20nm_matches_table1(self):
        profile = ScalingModel().profile(20.0)
        assert profile.wordline_error_rate == pytest.approx(0.099, abs=1e-6)
        assert profile.bitline_error_rate == pytest.approx(0.115, abs=1e-6)
        assert profile.wd_prone

    def test_old_node_not_prone(self):
        profile = ScalingModel().profile(90.0)
        assert not profile.wd_prone

    def test_onset_bisection(self):
        onset = ScalingModel().wd_onset_node()
        assert onset == pytest.approx(54.0, abs=0.5)

    def test_sweep_ordering(self):
        profiles = ScalingModel().sweep([20.0, 30.0, 54.0])
        rates = [p.bitline_error_rate for p in profiles]
        assert rates[0] > rates[1] > rates[2] >= 0.0

    def test_minimum_safe_pitch_below_prototype(self):
        """The prototype's 3F/4F choices should be at or above our model's
        minimal safe pitch (they include engineering margin)."""
        assert minimum_safe_pitch(Medium.GST) <= 4.0
        assert minimum_safe_pitch(Medium.OXIDE) <= 3.0
