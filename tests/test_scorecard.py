"""Tests for the reproduction scorecard."""

from __future__ import annotations

import pytest

from repro.experiments import scorecard


class TestScorecard:
    def test_all_checks_pass_at_small_scale(self):
        result = scorecard.run_experiment(length=250, workloads=("mcf", "stream"))
        assert result.metrics["passed"] == result.metrics["checks"]
        assert result.metrics["checks"] >= 12

    def test_render_contains_verdicts(self):
        result = scorecard.run_experiment(length=200, workloads=("stream",))
        text = result.render()
        assert "PASS" in text and "EXACT" in text and "DIVERGE" in text

    def test_full_scorecard_passes_at_trace_len_200(self, monkeypatch):
        """The paper gate: every claim passes at the default workloads.

        The result cache is per-test (conftest), so every cell is cold.
        At length 60 the scorecard reads 13/15, so the golden pins alone
        do not gate the claims.
        """
        monkeypatch.setenv("REPRO_TRACE_LEN", "200")
        monkeypatch.delenv("REPRO_CORES", raising=False)
        result = scorecard.run_experiment()
        assert result.metrics["passed"] == result.metrics["checks"] == 15
