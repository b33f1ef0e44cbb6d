"""Tests for the Arrhenius disturbance model and Table 1 reproduction."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.pcm import constants as C
from repro.pcm.disturbance import (
    DisturbanceModel,
    _solve_arrhenius,
    default_disturbance_model,
    table1_rates,
)
from repro.pcm.thermal import Medium, default_thermal_model


@pytest.fixture
def model() -> DisturbanceModel:
    return default_disturbance_model()


class TestTable1:
    def test_wordline_rate(self, model):
        assert model.error_rate(310.0) == pytest.approx(0.099, abs=1e-9)

    def test_bitline_rate(self, model):
        assert model.error_rate(320.0) == pytest.approx(0.115, abs=1e-9)

    def test_full_table(self):
        rates = table1_rates()
        assert rates["word-line"]["error_rate"] == pytest.approx(0.099, abs=1e-6)
        assert rates["bit-line"]["error_rate"] == pytest.approx(0.115, abs=1e-6)
        assert rates["word-line"]["temperature_c"] == pytest.approx(310.0, abs=1e-6)
        assert rates["bit-line"]["temperature_c"] == pytest.approx(320.0, abs=1e-6)


class TestModelShape:
    def test_zero_below_crystallisation(self, model):
        assert model.error_rate(299.9) == 0.0
        assert model.error_rate(25.0) == 0.0

    def test_monotone_above_threshold(self, model):
        rates = [model.error_rate(t) for t in (305, 310, 320, 350, 400)]
        assert rates == sorted(rates)

    def test_capped_at_melt(self, model):
        assert model.error_rate(800.0) == model.error_rate(C.MELT_C)

    @given(st.floats(min_value=300.0, max_value=600.0))
    def test_probability_range(self, temp):
        rate = default_disturbance_model().error_rate(temp)
        assert 0.0 <= rate < 1.0

    def test_activation_energy_physical(self):
        """Calibrated Ea should be a plausible sub-eV activation energy."""
        ea, _ = _solve_arrhenius()
        assert 0.1 < ea < 2.0

    def test_error_rate_at_combines_models(self, model):
        """The thermal model's neighbour temperature drives this model."""
        thermal = default_thermal_model()

        def rate_at(pitch_nm: float) -> float:
            temp = thermal.neighbour_temperature(pitch_nm, Medium.GST, 20.0)
            return model.error_rate(temp)

        assert rate_at(40.0) == pytest.approx(0.115, abs=1e-9)
        assert rate_at(80.0) == 0.0

    def test_invalid_pulse_rejected(self):
        with pytest.raises(ConfigError):
            DisturbanceModel(pulse_s=0.0)


class TestCachedSolver:
    """The lru_cache on _solve_arrhenius must not change the calibration."""

    def test_cached_and_fresh_solutions_identical(self):
        cached = _solve_arrhenius()
        _solve_arrhenius.cache_clear()
        fresh = _solve_arrhenius()
        assert fresh == cached  # bit-identical, not approx

    def test_cache_is_hit_on_repeat_calls(self, model):
        _solve_arrhenius.cache_clear()
        model.error_rate(330.0)
        model.error_rate(340.0)
        info = _solve_arrhenius.cache_info()
        assert info.misses == 1
        assert info.hits >= 1

    def test_anchors_survive_caching(self, model):
        """Table 1 anchors through the cached path: 310°C → 9.9%, 320°C → 11.5%."""
        assert model.error_rate(C.ANCHOR_WORDLINE_TEMP_C) == pytest.approx(
            C.ANCHOR_WORDLINE_RATE, abs=1e-12
        )
        assert model.error_rate(C.ANCHOR_BITLINE_TEMP_C) == pytest.approx(
            C.ANCHOR_BITLINE_RATE, abs=1e-12
        )
