"""Tests for the PCM thermal model (Table 1 anchors and scaling claims)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.pcm import constants as C
from repro.pcm.thermal import Medium, ThermalModel, default_thermal_model


@pytest.fixture
def model() -> ThermalModel:
    return default_thermal_model()


class TestTable1Anchors:
    def test_wordline_anchor_exact(self, model):
        temp = model.neighbour_temperature(40.0, Medium.OXIDE, 20.0)
        assert temp == pytest.approx(310.0, abs=1e-9)

    def test_bitline_anchor_exact(self, model):
        temp = model.neighbour_temperature(40.0, Medium.GST, 20.0)
        assert temp == pytest.approx(320.0, abs=1e-9)

    def test_bitline_hotter_than_wordline(self, model):
        """uTrench GST rail conducts heat better than oxide isolation."""
        for pitch in (40.0, 50.0, 60.0):
            assert model.neighbour_temperature(
                pitch, Medium.GST, 20.0
            ) > model.neighbour_temperature(pitch, Medium.OXIDE, 20.0)

    def test_gst_decay_length_longer_than_oxide(self, model):
        assert model.lambda_gst_20 > model.lambda_oxide_20


class TestWDFreeSpacings:
    """Figure 1(b)'s prototype spacings must be WD-free."""

    def test_prototype_3f_wordline_free(self, model):
        assert model.is_wd_free(60.0, Medium.OXIDE, 20.0)

    def test_prototype_4f_bitline_free(self, model):
        assert model.is_wd_free(80.0, Medium.GST, 20.0)

    def test_din_4f_bitline_free(self, model):
        """Figure 1(c): DIN keeps 4F along bit-lines, WD-free."""
        assert model.is_wd_free(80.0, Medium.GST, 20.0)

    def test_minimal_pitch_not_free(self, model):
        assert not model.is_wd_free(40.0, Medium.GST, 20.0)
        assert not model.is_wd_free(40.0, Medium.OXIDE, 20.0)


class TestScaling:
    def test_onset_at_54nm(self, model):
        """WD first observed at 54 nm [15]: 2F neighbour exactly at threshold."""
        temp = model.neighbour_temperature(108.0, Medium.GST, 54.0)
        assert temp == pytest.approx(C.CRYSTALLIZATION_C, abs=1e-6)

    def test_larger_nodes_are_safe(self, model):
        for node in (65.0, 90.0):
            assert model.is_wd_free(2 * node, Medium.GST, node)

    def test_smaller_nodes_are_worse(self, model):
        t30 = model.neighbour_temperature(60.0, Medium.GST, 30.0)
        t20 = model.neighbour_temperature(40.0, Medium.GST, 20.0)
        assert t20 > t30 > C.CRYSTALLIZATION_C

    def test_temperature_monotone_in_pitch(self, model):
        temps = [
            model.neighbour_temperature(p, Medium.GST, 20.0)
            for p in (40.0, 50.0, 60.0, 80.0, 120.0)
        ]
        assert temps == sorted(temps, reverse=True)

    @given(st.floats(min_value=15.0, max_value=100.0))
    def test_temperature_bounded(self, node):
        model = default_thermal_model()
        temp = model.neighbour_temperature(2 * node, Medium.GST, node)
        assert C.AMBIENT_C <= temp <= C.RESET_PEAK_C


class TestValidation:
    def test_pitch_below_feature_rejected(self, model):
        with pytest.raises(ConfigError):
            model.neighbour_temperature(10.0, Medium.GST, 20.0)

    def test_nonpositive_feature_rejected(self, model):
        with pytest.raises(ConfigError):
            model.decay_length(Medium.GST, 0.0)

    def test_bad_anchor_ordering_rejected(self):
        with pytest.raises(ConfigError):
            ThermalModel(anchor_wordline_c=700.0)

    def test_temperature_rise_relative_to_ambient(self, model):
        rise = model.neighbour_temperature(40.0, Medium.GST, 20.0) - model.ambient_c
        assert rise == pytest.approx(320.0 - C.AMBIENT_C)
