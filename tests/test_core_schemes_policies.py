"""Tests for scheme factories and the PreRead helpers."""

from __future__ import annotations

import pytest

from repro.alloc.strips import adjacent_usage
from repro.config import SchemeConfig
from repro.core import schemes
from repro.core.preread import PrereadHardwareCost
from repro.errors import ConfigError
from repro.experiments.figure16 import RATIOS


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
        assert s.bitlines == "wd_free"

    # Which neighbours a write verifies is the Figure 9 rule in
    # ``adjacent_usage``, applied to the scheme's (n:m) ratio.  Strip 2
    # is used and inside its 64 MB block under every ratio below.

    def test_baseline_needs_vnc(self):
        s = schemes.baseline()
        assert s.bitlines == "vnc"
        assert adjacent_usage(2, *s.nm_ratio) == (True, True)

    def test_1_2_needs_no_vnc(self):
        s = schemes.nm_alloc(1, 2)
        assert adjacent_usage(2, *s.nm_ratio) == (False, False)

    def test_2_3_needs_vnc(self):
        s = schemes.nm_alloc(2, 3)
        assert s.bitlines == "vnc" and any(adjacent_usage(2, *s.nm_ratio))

    def test_by_name_roundtrip(self):
        for name in list(schemes.FIGURE11_SCHEMES) + ["WC", "WC+LazyC", "PreRead"]:
            assert isinstance(schemes.by_name(name), SchemeConfig)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            schemes.by_name("nope")

    def test_unknown_bitlines_rejected(self):
        with pytest.raises(ConfigError, match="'wd_free', 'unverified', 'vnc'"):
            SchemeConfig(bitlines="barrier")

    def test_ratio_sweep(self):
        assert RATIOS == ((1, 2), (2, 3), (3, 4), (7, 8))
        for n, m in RATIOS:
            assert schemes.nm_alloc(n, m).nm_ratio == (n, m)


class TestPrereadHelpers:
    def test_hardware_cost_matches_paper(self):
        cost = PrereadHardwareCost(queue_entries=32)
        assert cost.total_bytes == pytest.approx(4096, abs=16)
        assert cost.original_buffer_bytes == 2048
        assert cost.buffer_bits_per_entry == 2 * (512 + 1)
