"""Tests for differential-write programming-round latency."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.config import TimingConfig
from repro.pcm.differential_write import correction_latency, rounds_latency

T = TimingConfig()


class TestRounds:
    def test_single_reset_round(self):
        assert rounds_latency(1, 0, T) == T.reset_cycles
        assert rounds_latency(128, 0, T) == T.reset_cycles

    def test_single_mixed_round_takes_set_time(self):
        assert rounds_latency(64, 64, T) == T.set_cycles
        assert rounds_latency(1, 1, T) == T.set_cycles

    def test_reset_overflow_makes_two_rounds(self):
        assert rounds_latency(129, 0, T) == 2 * T.reset_cycles

    def test_full_line_rewrite(self):
        # 256 RESET + 256 SET: 2 full RESET rounds + 2 SET rounds.
        assert rounds_latency(256, 256, T) == 2 * T.reset_cycles + 2 * T.set_cycles

    def test_set_spillover(self):
        # 100 RESET + 100 SET: one mixed round (28 SET absorbed) + one SET round.
        assert rounds_latency(100, 100, T) == T.set_cycles + T.set_cycles

    def test_zero_cells(self):
        assert rounds_latency(0, 0, T) == T.reset_cycles

    @given(st.integers(0, 512), st.integers(0, 512))
    def test_latency_monotone_and_bounded(self, resets, sets):
        lat = rounds_latency(resets, sets, T)
        assert lat >= T.reset_cycles
        total_rounds = -(-(resets + sets) // T.write_parallelism) if resets + sets else 1
        assert lat <= max(total_rounds, 1) * T.set_cycles + T.set_cycles

    def test_correction_is_reset_only(self):
        assert correction_latency(3, T) == T.reset_cycles
        assert correction_latency(200, T) == 2 * T.reset_cycles
