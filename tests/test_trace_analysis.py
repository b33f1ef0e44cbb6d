"""Tests: the synthetic generator measurably exhibits Table 3's rates."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LINE_BYTES, PAGES_PER_STRIP, PAGE_BYTES
from repro.errors import TraceError
from repro.traces.analysis import analyse
from repro.traces.profiles import WORKLOAD_ORDER, profile
from repro.traces.synthetic import generate_trace
from tests.conftest import make_trace


class TestAnalyse:
    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            analyse(make_trace([]))

    def test_simple_counts(self):
        trace = make_trace([
            (False, 0, 9),     # 10 instructions
            (True, 64, 9),     # 10 instructions
        ])
        p = analyse(trace)
        assert p.references == 2
        assert p.instructions == 20
        assert p.rpki == pytest.approx(50.0)
        assert p.wpki == pytest.approx(50.0)
        assert p.write_fraction == 0.5
        assert p.sequential_fraction == 1.0
        assert p.footprint_lines == 2 and p.footprint_pages == 1

    def test_reuse_fraction(self):
        trace = make_trace([(False, 0, 0)] * 4)
        assert analyse(trace).line_reuse_fraction == 0.75

    def test_bank_balance_extremes(self):
        # All in one bank (page 0 repeatedly).
        one_bank = make_trace([(False, 0, 0)] * 16)
        assert analyse(one_bank).bank_balance == 0.0
        # Spread over all 16 banks (pages 0..15).
        spread = make_trace([(False, p * 4096, 0) for p in range(16)])
        assert analyse(spread).bank_balance == pytest.approx(1.0)

    @given(st.lists(
        st.tuples(st.booleans(), st.integers(0, 40).map(lambda a: a * 1600),
                  st.integers(0, 30)),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=40, deadline=None)
    def test_matches_a_per_reference_loop(self, references):
        """Every field equals a plain per-reference count, floats exactly."""
        addresses = [a - a % LINE_BYTES for _, a, _ in references]
        trace = make_trace(
            [(w, a, g) for (w, _, g), a in zip(references, addresses)])
        n = len(references)
        writes = sum(w for w, _, _ in references)
        instructions = sum(g + 1 for _, _, g in references)
        banks = Counter(a // PAGE_BYTES % PAGES_PER_STRIP for a in addresses)
        entropy = 0.0
        for count in banks.values():
            entropy -= count / n * math.log(count / n)
        seen, reuses = set(), 0
        for a in addresses:
            reuses += a // LINE_BYTES in seen
            seen.add(a // LINE_BYTES)
        p = analyse(trace)
        assert (p.references, p.instructions) == (n, instructions)
        assert p.rpki == (n - writes) * 1000.0 / instructions
        assert p.wpki == writes * 1000.0 / instructions
        assert p.write_fraction == writes / n
        assert p.footprint_pages == len({a // PAGE_BYTES for a in addresses})
        assert p.footprint_lines == len(seen)
        assert p.sequential_fraction == sum(
            b - a == LINE_BYTES for a, b in zip(addresses, addresses[1:])
        ) / max(1, n - 1)
        assert p.bank_balance == entropy / math.log(PAGES_PER_STRIP)
        assert p.line_reuse_fraction == reuses / n

    def test_summary_rows_render(self):
        rows = analyse(make_trace([(False, 0, 0)])).summary_rows()
        assert any(r[0] == "RPKI" for r in rows)


class TestGeneratorFidelity:
    """Every Table 3 workload's generated trace must measure back to its
    published RPKI/WPKI within tolerance — the substitution's core claim."""

    @pytest.mark.parametrize("bench", WORKLOAD_ORDER)
    def test_rates_match_table3(self, bench):
        trace = generate_trace(bench, 6000, seed=3)
        spec = profile(bench)
        measured = analyse(trace)

        def close(got: float, want: float) -> bool:
            if want == 0:
                return got < 0.05
            return abs(got - want) <= 0.15 * want

        assert close(measured.rpki, spec.rpki), measured.rpki
        assert close(measured.wpki, spec.wpki), measured.wpki

    def test_streaming_benchmark_measures_sequential(self):
        trace = generate_trace("stream", 3000, seed=1)
        assert analyse(trace).sequential_fraction > 0.8

    def test_pointer_benchmark_measures_irregular(self):
        trace = generate_trace("mcf", 3000, seed=1)
        p = analyse(trace)
        assert p.sequential_fraction < 0.35
        assert p.bank_balance > 0.9  # interleaving spreads banks

    def test_footprint_bounded_by_working_set(self):
        trace = generate_trace("xalan", 3000, seed=1, base_page=0)
        assert analyse(trace).footprint_pages <= profile("xalan").working_set_pages
