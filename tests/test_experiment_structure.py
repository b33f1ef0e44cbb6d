"""Structural tests for the remaining experiment modules (tiny scale)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ablation,
    energy,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    figure18,
    figure19,
    node_sensitivity,
)

ONE = ("stream",)

F11 = ["DIN", "baseline", "LazyC", "LazyC+PreRead", "LazyC+(2:3)",
       "LazyC+PreRead+(2:3)", "(1:2)"]
ECP = ["ECP-0", "ECP-2", "ECP-4", "ECP-6", "ECP-8", "ECP-10"]
ECP_KEYS = ["ecp0", "ecp2", "ecp4", "ecp6", "ecp8", "ecp10"]
ENERGY = ["DIN", "baseline", "LazyC", "LazyC+PreRead", "(1:2)"]
LIFETIME = ["workload", "normalized lifetime", "degradation %"]
VNC_WC = ["VnC", "eager", "WC", "LazyC", "WC+LazyC"]

#: experiment -> (headers, metric keys in export order, row labels) at
#: one workload and default parameters.  ``export.to_json`` keeps metric
#: insertion order and the scorecard and perfbench read these keys, so
#: a reordered or renamed metric changes every downstream digest.
LAYOUTS = {
    figure11.run_experiment: (["workload"] + F11, F11, ["stream", "gmean"]),
    figure12.run_experiment: (["workload"] + ECP, ECP_KEYS, ["stream", "mean"]),
    figure13.run_experiment: (["workload"] + ECP, ECP_KEYS, ["stream", "gmean"]),
    figure14.run_experiment: (
        ["lifetime", "gmean speedup vs fresh", "degradation %"],
        ["life0", "life25", "life50", "life75", "life100"],
        ["0%", "25%", "50%", "75%", "100%"],
    ),
    figure15.run_experiment: (
        ["workload", "8 entries", "16 entries", "32 entries", "64 entries"],
        ["wq8", "wq8_vs_din", "wq16", "wq16_vs_din", "wq32", "wq32_vs_din",
         "wq64", "wq64_vs_din"],
        ["stream", "gmean"],
    ),
    figure16.run_experiment: (
        ["workload", "(1:2)", "(2:3)", "(3:4)", "(7:8)"],
        ["1:2", "2:3", "3:4", "7:8"],
        ["stream", "gmean", "usable capacity"],
    ),
    figure17.run_experiment: (LIFETIME, ["mean_degradation"], ["stream", "mean"]),
    figure18.run_experiment: (
        LIFETIME,
        ["mean_degradation", "effective_headroom_vs_data_chip"],
        ["stream", "mean"],
    ),
    figure19.run_experiment: (["workload"] + VNC_WC, VNC_WC, ["stream", "gmean"]),
    energy.run_experiment: (["workload"] + ENERGY, ENERGY, ["stream", "mean"]),
    ablation.run_ecp_density_ablation: (
        ["workload", "low-density ECP (SD-PCM)", "super dense ECP (naive)"],
        ["low_density", "dense"],
        ["stream", "gmean"],
    ),
    ablation.run_read_priority_ablation: (
        ["workload", "LazyC (bursty)", "WC+LazyC", "WP+LazyC"],
        ["LazyC", "WC+LazyC", "WP+LazyC"],
        ["stream", "gmean"],
    ),
    ablation.run_din_ablation: (
        ["workload", "with DIN", "without DIN"],
        ["with_din", "without_din"],
        ["stream", "mean"],
    ),
    ablation.run_weak_cell_ablation: (
        ["workload", "f=0.1", "f=0.25", "f=0.5", "f=1"],
        ["f0.1", "f0.25", "f0.5", "f1"],
        ["stream", "mean"],
    ),
    node_sensitivity.run_experiment: (
        ["node", "p_bitline", "DIN", "LazyC", "LazyC+PreRead"],
        ["din_30", "lazyc_30", "p_bl_30", "din_20", "lazyc_20", "p_bl_20",
         "din_16", "lazyc_16", "p_bl_16"],
        ["30 nm", "20 nm", "16 nm"],
    ),
}


@pytest.mark.parametrize(
    "run", list(LAYOUTS), ids=lambda fn: f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
)
def test_headers_metric_keys_and_rows_are_pinned(run, monkeypatch):
    monkeypatch.setenv("REPRO_CORES", "2")
    headers, metrics, labels = LAYOUTS[run]
    result = run(length=40, workloads=ONE)
    assert result.headers == headers
    assert list(result.metrics) == metrics
    assert [row[0] for row in result.rows] == labels
    assert all(len(row) == len(headers) for row in result.rows)


class TestFigure11Structure:
    def test_columns_and_gmean_row(self):
        result = figure11.run_experiment(length=150, workloads=ONE)
        assert result.headers[0] == "workload"
        assert result.headers[1] == "DIN"
        assert result.rows[-1][0] == "gmean"
        assert result.metrics["baseline"] == 1.0
        # (1:2) tracks DIN within noise even at tiny scale.
        assert result.metrics["(1:2)"] == pytest.approx(
            result.metrics["DIN"], rel=0.1
        )


class TestFigure13Structure:
    def test_levels_and_monotone_head(self):
        result = figure13.run_experiment(length=150, workloads=ONE,
                                         levels=(0, 6))
        assert result.metrics["ecp6"] >= result.metrics["ecp0"] * 0.99


class TestFigure14Structure:
    def test_fresh_point_is_unity(self):
        result = figure14.run_experiment(
            length=150, workloads=ONE, points=(0.0, 1.0)
        )
        assert result.metrics["life0"] == 1.0
        assert result.metrics["life100"] > 0.8


class TestFigure15Structure:
    def test_queue_columns(self):
        result = figure15.run_experiment(length=150, workloads=ONE,
                                         sizes=(8, 32))
        assert "wq8" in result.metrics and "wq32" in result.metrics
        assert result.metrics["wq32_vs_din"] >= 1.0  # never faster than DIN


class TestFigure19Structure:
    def test_scheme_columns(self):
        result = figure19.run_experiment(length=150, workloads=ONE)
        for name in ("VnC", "eager", "WC", "LazyC", "WC+LazyC"):
            assert name in result.metrics
        assert result.metrics["VnC"] == 1.0
        # Cancellation's own contribution is WC relative to eager.
        assert result.metrics["WC"] >= result.metrics["eager"] * 0.9


class TestNodeSensitivityStructure:
    def test_rows_per_node(self):
        result = node_sensitivity.run_experiment(
            length=150, workloads=ONE, nodes=(20.0,)
        )
        assert len(result.rows) == 1
        assert result.rows[0][0] == "20 nm"
