"""Tests for experiments.common plumbing and system scheme labels."""

from __future__ import annotations

import pytest

from repro.core import schemes
from repro.core.system import SDPCMSystem
from repro.errors import ConfigError
from repro.experiments.common import (
    ExperimentResult,
    add_gmean_row,
    cell,
    core_count,
    paper_workload_names,
    trace_length,
)
from repro.traces import shm
from repro.traces.profiles import WORKLOAD_ORDER
from tests.conftest import small_config


class TestEnvKnobs:
    def test_trace_length_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_LEN", raising=False)
        assert trace_length(777) == 777

    def test_trace_length_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "4242")
        assert trace_length() == 4242

    def test_core_count_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "2")
        assert core_count() == 2

    def test_explicit_zero_length_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "300")
        assert cell("mcf", schemes.baseline(), length=0).length == 0
        assert cell("mcf", schemes.baseline()).length == 300

    def test_explicit_zero_cores_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "2")
        assert cell("mcf", schemes.baseline()).config.cores == 2
        with pytest.raises(ConfigError, match="cores must be positive"):
            cell("mcf", schemes.baseline(), cores=0)


class TestWorkloadCache:
    def test_distinct_keys_distinct_objects(self):
        a = shm.workload_for("wrf", length=50, cores=1, seed=9)
        for other in [dict(length=60, cores=1, seed=9),
                      dict(length=50, cores=2, seed=9),
                      dict(length=50, cores=1, seed=10)]:
            assert shm.workload_for("wrf", **other) is not a
        assert shm.workload_for("mcf", length=50, cores=1, seed=9) is not a

    def test_paper_workload_names(self):
        assert paper_workload_names() == WORKLOAD_ORDER
        assert paper_workload_names(("mcf",)) == ["mcf"]


class TestExperimentResult:
    def test_gmean_row_skips_text_cells(self):
        result = ExperimentResult("t", ["w", "x"], rows=[["a", 2.0], ["b", 8.0]])
        add_gmean_row(result)
        assert result.rows[-1][0] == "gmean"
        assert result.rows[-1][1] == pytest.approx(4.0)

    def test_gmean_row_on_empty(self):
        result = ExperimentResult("t", ["w", "x"])
        add_gmean_row(result)
        assert result.rows == []

    def test_render_includes_notes(self):
        result = ExperimentResult("t", ["a"], rows=[["x"]], notes=["hello"])
        assert "note: hello" in result.render()


class TestSchemeLabels:
    @pytest.mark.parametrize(
        "factory, fragment",
        [
            (schemes.wp_lazyc, "WP"),
            (schemes.write_pausing, "WP"),
            (schemes.eager, "eager"),
            (schemes.wc_lazyc, "WC"),
            (schemes.lazyc_dense_ecp, "denseECP"),
        ],
    )
    def test_labels_mention_components(self, factory, fragment):
        label = SDPCMSystem(small_config(factory()))._scheme_label()
        assert fragment in label

    def test_nm_label(self):
        label = SDPCMSystem(small_config(schemes.nm_alloc(1, 2)))._scheme_label()
        assert "(1:2)" in label
