"""Tests for configuration dataclasses and their Table 2 defaults."""

from __future__ import annotations

import pytest

from repro.alloc.strips import adjacent_usage
from repro.config import (
    LINE_BITS,
    LINE_BYTES,
    LINES_PER_PAGE,
    PAGES_PER_STRIP,
    DisturbanceConfig,
    MemoryConfig,
    SchemeConfig,
    SystemConfig,
    TimingConfig,
)
from repro.errors import ConfigError


class TestConstants:
    def test_line_geometry(self):
        assert LINE_BYTES == 64
        assert LINE_BITS == 512
        assert LINES_PER_PAGE == 64
        assert PAGES_PER_STRIP == 16


class TestTiming:
    def test_table2_defaults(self):
        t = TimingConfig()
        assert t.read_cycles == 400          # 100 ns @ 4 GHz
        assert t.reset_cycles == 400
        assert t.set_cycles == 800           # 200 ns
        assert t.write_parallelism == 128

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimingConfig(read_cycles=0)
        with pytest.raises(ConfigError):
            TimingConfig(set_cycles=100, reset_cycles=400)
        with pytest.raises(ConfigError):
            TimingConfig(write_parallelism=0)


class TestMemory:
    def test_table2_defaults(self):
        m = MemoryConfig()
        assert m.banks == 16                # 2 ranks x 8 banks
        assert m.write_queue_entries == 32
        assert m.capacity_bytes == 8 << 30
        assert m.total_pages == (8 << 30) // 4096
        assert m.rows_per_bank * m.banks == m.total_pages

    def test_validation(self):
        with pytest.raises(ConfigError):
            MemoryConfig(ranks=0)
        with pytest.raises(ConfigError):
            MemoryConfig(capacity_bytes=4097)


class TestDisturbance:
    def test_table1_defaults(self):
        d = DisturbanceConfig()
        assert d.p_bitline == 0.115
        assert d.p_wordline == 0.099

    def test_weak_rate_preserves_mean(self):
        d = DisturbanceConfig(weak_cell_fraction=0.25)
        assert d.p_bitline_weak * d.weak_cell_fraction == pytest.approx(0.115)

    def test_weak_rate_capped(self):
        d = DisturbanceConfig(weak_cell_fraction=0.05)
        assert d.p_bitline_weak == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            DisturbanceConfig(p_bitline=1.5)
        with pytest.raises(ConfigError):
            DisturbanceConfig(weak_cell_fraction=0.0)


class TestScheme:
    def test_needs_vnc_matrix(self):
        """Verification needs ``bitlines="vnc"`` plus a used neighbour
        under the Figure 9 rule (strip 2 is used and inside its block)."""
        assert SchemeConfig().bitlines == "vnc"
        assert adjacent_usage(2, *SchemeConfig().nm_ratio) == (True, True)
        assert adjacent_usage(2, *SchemeConfig(nm_ratio=(1, 2)).nm_ratio) == (
            False, False)
        assert any(adjacent_usage(2, *SchemeConfig(nm_ratio=(2, 3)).nm_ratio))

    def test_validation(self):
        with pytest.raises(ConfigError):
            SchemeConfig(nm_ratio=(3, 2))
        with pytest.raises(ConfigError):
            SchemeConfig(ecp_entries=-1)


class TestSystem:
    def test_with_scheme_is_pure(self):
        base = SystemConfig()
        other = base.with_scheme(SchemeConfig(lazy_correction=True))
        assert not base.scheme.lazy_correction
        assert other.scheme.lazy_correction
        assert other.memory == base.memory

    def test_core_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(cores=0)
