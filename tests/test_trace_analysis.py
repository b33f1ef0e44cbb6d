"""Tests: the synthetic generator measurably exhibits Table 3's rates."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.traces.analysis import analyse
from repro.traces.profiles import WORKLOAD_ORDER, profile
from repro.traces.record import TraceRecord
from repro.traces.synthetic import generate_trace


class TestAnalyse:
    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            analyse([])

    def test_simple_counts(self):
        records = [
            TraceRecord(False, 0, 9),     # 10 instructions
            TraceRecord(True, 64, 9),     # 10 instructions
        ]
        p = analyse(records)
        assert p.references == 2
        assert p.instructions == 20
        assert p.rpki == pytest.approx(50.0)
        assert p.wpki == pytest.approx(50.0)
        assert p.write_fraction == 0.5
        assert p.sequential_fraction == 1.0
        assert p.footprint_lines == 2 and p.footprint_pages == 1

    def test_reuse_fraction(self):
        records = [TraceRecord(False, 0, 0)] * 4
        assert analyse(records).line_reuse_fraction == 0.75

    def test_bank_balance_extremes(self):
        # All in one bank (page 0 repeatedly).
        one_bank = [TraceRecord(False, 0, 0)] * 16
        assert analyse(one_bank).bank_balance == 0.0
        # Spread over all 16 banks (pages 0..15).
        spread = [TraceRecord(False, p * 4096, 0) for p in range(16)]
        assert analyse(spread).bank_balance == pytest.approx(1.0)

    def test_summary_rows_render(self):
        rows = analyse([TraceRecord(False, 0, 0)]).summary_rows()
        assert any(r[0] == "RPKI" for r in rows)


class TestGeneratorFidelity:
    """Every Table 3 workload's generated trace must measure back to its
    published RPKI/WPKI within tolerance — the substitution's core claim."""

    @pytest.mark.parametrize("bench", WORKLOAD_ORDER)
    def test_rates_match_table3(self, bench):
        records = generate_trace(bench, 6000, seed=3)
        spec = profile(bench)
        measured = analyse(records)

        def close(got: float, want: float) -> bool:
            if want == 0:
                return got < 0.05
            return abs(got - want) <= 0.15 * want

        assert close(measured.rpki, spec.rpki), measured.rpki
        assert close(measured.wpki, spec.wpki), measured.wpki

    def test_streaming_benchmark_measures_sequential(self):
        records = generate_trace("stream", 3000, seed=1)
        assert analyse(records).sequential_fraction > 0.8

    def test_pointer_benchmark_measures_irregular(self):
        records = generate_trace("mcf", 3000, seed=1)
        p = analyse(records)
        assert p.sequential_fraction < 0.35
        assert p.bank_balance > 0.9  # interleaving spreads banks

    def test_footprint_bounded_by_working_set(self):
        records = generate_trace("xalan", 3000, seed=1, base_page=0)
        assert analyse(records).footprint_pages <= profile("xalan").working_set_pages
