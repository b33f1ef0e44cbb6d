"""Tests for JSON export of experiment results."""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.export import to_dict, to_json, write_json
from repro.experiments.runner import main


def sample() -> ExperimentResult:
    return ExperimentResult(
        title="T",
        headers=["a", "b"],
        rows=[["x", 1.5]],
        metrics={"m": 2.0},
        notes=["n"],
    )


class TestExport:
    def test_roundtrip(self, tmp_path):
        path = write_json(sample(), tmp_path / "r.json")
        loaded = json.loads(path.read_text())
        assert loaded == to_dict(sample())
        assert loaded["title"] == "T"
        assert loaded["rows"] == [["x", 1.5]]
        assert loaded["metrics"] == {"m": 2.0}
        assert loaded["notes"] == ["n"]

    def test_to_json_valid(self):
        payload = json.loads(to_json(sample()))
        assert payload["headers"] == ["a", "b"]

    def test_runner_json_flag(self, tmp_path, capsys):
        rc = main(["--json", str(tmp_path), "table1"])
        assert rc == 0
        assert (tmp_path / "table1.json").exists()
        loaded = json.loads((tmp_path / "table1.json").read_text())
        assert loaded["metrics"]["bit-line_rate"] == pytest.approx(0.115, abs=1e-6)

    def test_runner_json_flag_requires_dir(self, capsys):
        assert main(["--json"]) == 2
