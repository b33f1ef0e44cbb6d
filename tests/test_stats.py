"""Tests for counters, lifetime accounting, and report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DisturbanceConfig, SchemeConfig, TimingConfig
from repro.core.vnc import VnCExecutor
from repro.ecp.chip import ECPChip
from repro.pcm.array import PCMArray
from repro.stats.counters import Counters
from repro.stats.report import format_table


def publish(counters: Counters) -> None:
    """Publish an idle VnC executor's (empty) totals into ``counters``:
    the end-of-replay step that sets the histograms' maxima."""
    executor = VnCExecutor(
        array=PCMArray(banks=1, rows_per_bank=4),
        ecp=ECPChip(),
        scheme=SchemeConfig(),
        timing=TimingConfig(),
        disturbance=DisturbanceConfig(),
        counters=counters,
        rng=np.random.default_rng(0),
    )
    executor.publish_counters()


class TestCounters:
    def test_corrections_per_write(self):
        c = Counters()
        c.demand_writes = 10
        c.corrections = 18
        c.cascade_corrections = 4
        assert c.corrections_per_write == pytest.approx(1.8)  # no cascades
        assert Counters().corrections_per_write == 0.0

    def test_adjacent_error_histogram(self):
        c = Counters()
        c.errors_per_adjacent_line_hist.update({0: 1, 2: 2, 9: 1})
        assert c.avg_errors_per_adjacent_line == pytest.approx(13 / 4)
        publish(c)
        assert c.max_errors_one_adjacent_line == 9

    def test_wordline_histogram(self):
        c = Counters()
        c.errors_per_wordline_hist.update({0: 1, 2: 1})
        assert c.avg_errors_wordline == 1.0
        publish(c)
        assert c.max_errors_wordline == 2
        assert Counters().avg_errors_wordline == 0.0

    def test_data_chip_lifetime(self):
        c = Counters()
        c.data_cell_writes_demand = 10_000
        c.data_cell_writes_correction = 4
        assert c.data_chip_lifetime == pytest.approx(10_000 / 10_004)
        assert Counters().data_chip_lifetime == 1.0

    def test_ecp_chip_lifetime_scaling(self):
        c = Counters()
        c.ecp_cell_writes_background = 1000  # /10 -> 100 effective
        c.ecp_cell_writes_wd = 10
        assert c.ecp_chip_lifetime == pytest.approx(100 / 110)

    def test_both_chip_lifetimes(self):
        c = Counters()
        c.data_cell_writes_demand = 1000
        c.data_cell_writes_correction = 1
        c.ecp_cell_writes_background = 1000
        c.ecp_cell_writes_wd = 8
        assert 0.99 < c.data_chip_lifetime <= 1.0
        assert c.ecp_chip_lifetime == pytest.approx(100 / 108)
        assert 1.0 - c.ecp_chip_lifetime == pytest.approx(8 / 108)

    def test_no_traffic_is_unit_lifetime(self):
        c = Counters()
        assert c.data_chip_lifetime == 1.0 and c.ecp_chip_lifetime == 1.0

    def test_lifetime_is_base_over_base_plus_extra(self):
        # The ratio is exact, and 1.0 with no extra wear or no base wear.
        def data(demand, correction):
            return Counters(data_cell_writes_demand=demand,
                            data_cell_writes_correction=correction)

        assert data(100, 0).data_chip_lifetime == 1.0
        assert data(100, 100).data_chip_lifetime == 0.5
        assert data(0, 50).data_chip_lifetime == 1.0
        ecp = Counters(ecp_cell_writes_background=1000, ecp_cell_writes_wd=100)
        assert ecp.ecp_chip_lifetime == 0.5
        assert Counters(ecp_cell_writes_wd=50).ecp_chip_lifetime == 1.0


class TestReport:
    def test_format_table(self):
        text = format_table("T", ["a", "b"], [["x", 1.5], ["y", 2.0]])
        assert "== T ==" in text
        assert "1.500" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_format_series(self):
        """An x/y figure curve renders as a two-column table."""
        text = format_table("S", ["x", "y"], [(1, 2.0)])
        assert "x" in text and "2.000" in text

    def test_column_alignment(self):
        text = format_table("T", ["name", "v"], [["longname", 1.0]])
        header, sep, row = text.splitlines()[1:]
        assert len(header) == len(row)
