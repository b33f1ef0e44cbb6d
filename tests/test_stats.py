"""Tests for counters, lifetime accounting, and report rendering."""

from __future__ import annotations

import pytest

from repro.stats.counters import Counters
from repro.stats.lifetime import lifetime_report
from repro.stats.report import format_table


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
        for n in (0, 2, 2, 9):
            c.note_adjacent_errors(n)
        assert c.avg_errors_per_adjacent_line == pytest.approx(13 / 4)
        assert c.max_errors_one_adjacent_line == 9
        assert c.errors_per_adjacent_line_hist == {0: 1, 2: 2, 9: 1}

    def test_wordline_histogram(self):
        c = Counters()
        c.note_wordline_errors(0)
        c.note_wordline_errors(2)
        assert c.avg_errors_wordline == 1.0
        assert c.max_errors_wordline == 2

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


class TestLifetimeReport:
    def test_report(self):
        c = Counters()
        c.data_cell_writes_demand = 1000
        c.data_cell_writes_correction = 1
        c.ecp_cell_writes_background = 1000
        c.ecp_cell_writes_wd = 8
        report = lifetime_report("mcf", c)
        assert report.workload == "mcf"
        assert 0.99 < report.data_chip <= 1.0
        assert report.ecp_chip == pytest.approx(100 / 108)
        assert report.ecp_degradation == pytest.approx(8 / 108)

    def test_no_traffic_is_unit_lifetime(self):
        report = lifetime_report("idle", Counters())
        assert report.data_chip == 1.0 and report.ecp_chip == 1.0


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
