"""Tests for scheme factories and the PreRead helpers."""

from __future__ import annotations

import pytest

from repro.config import SchemeConfig
from repro.core import schemes
from repro.core.preread import PrereadHardwareCost, preread_coverage
from repro.errors import ConfigError
from repro.stats.counters import Counters


class TestSchemeFactories:
    def test_figure11_lineup(self):
        assert list(schemes.FIGURE11_SCHEMES) == [
            "DIN",
            "baseline",
            "LazyC",
            "LazyC+PreRead",
            "LazyC+(2:3)",
            "LazyC+PreRead+(2:3)",
            "(1:2)",
        ]

    def test_din_has_no_vnc(self):
        s = schemes.din()
        assert s.wd_free_bitlines and not s.vnc and not s.needs_vnc

    def test_baseline_needs_vnc(self):
        assert schemes.baseline().needs_vnc

    def test_1_2_needs_no_vnc(self):
        assert not schemes.nm_alloc(1, 2).needs_vnc

    def test_2_3_needs_vnc(self):
        assert schemes.nm_alloc(2, 3).needs_vnc

    def test_by_name_roundtrip(self):
        for name in list(schemes.FIGURE11_SCHEMES) + ["WC", "WC+LazyC", "PreRead"]:
            assert isinstance(schemes.by_name(name), SchemeConfig)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            schemes.by_name("nope")

    def test_wd_free_with_vnc_rejected(self):
        with pytest.raises(ConfigError):
            SchemeConfig(wd_free_bitlines=True, vnc=True)

    def test_ratio_sweep(self):
        sweep = schemes.nm_ratio_schemes()
        assert set(sweep) == {"(1:2)", "(2:3)", "(3:4)", "(7:8)"}


class TestPrereadHelpers:
    def test_hardware_cost_matches_paper(self):
        cost = PrereadHardwareCost(queue_entries=32)
        assert cost.total_bytes == pytest.approx(4096, abs=16)
        assert cost.original_buffer_bytes == 2048
        assert cost.buffer_bits_per_entry == 2 * (512 + 1)

    def test_coverage(self):
        c = Counters()
        c.preread_hits = 6
        c.preread_forwards = 2
        c.pre_write_reads = 2
        assert preread_coverage(c) == pytest.approx(0.8)
        assert preread_coverage(Counters()) == 0.0
