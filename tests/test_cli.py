"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestListCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "RPKI" in out

    def test_list_schemes(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "DIN" in out and "LazyC+PreRead" in out and "WP+LazyC" in out


class TestSimulate:
    def test_simulate_runs(self, capsys):
        rc = main(
            ["simulate", "wrf", "--scheme", "LazyC", "--length", "100",
             "--cores", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "CPI" in out and "corrections/write" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "not-a-workload"])

    def test_unknown_scheme_errors(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["simulate", "wrf", "--scheme", "bogus", "--length", "10",
                  "--cores", "1"])


class TestCompare:
    def test_compare_runs(self, capsys):
        rc = main(["compare", "xalan", "--length", "100", "--cores", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "(1:2)" in out


class TestTraceCommands:
    def test_gen_and_analyze_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        assert main(["gen-trace", "wrf", str(out), "--length", "500"]) == 0
        assert out.exists()
        assert main(["analyze", str(out)]) == 0
        text = capsys.readouterr().out
        assert "RPKI" in text and "footprint" in text

    def test_gen_text_format(self, tmp_path, capsys):
        out = tmp_path / "t.trace"
        assert main(["gen-trace", "stream", str(out), "--length", "100"]) == 0
        content = out.read_text()
        assert content.splitlines()[0].startswith("#")


class TestExperiment:
    def test_experiment_dispatch(self, capsys):
        rc = main(["experiment", "table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_unknown_experiment(self, capsys):
        rc = main(["experiment", "figure99"])
        assert rc == 2


class TestServeFlags:
    @pytest.mark.parametrize("argv, message", [
        (["--port", "70000"], "--port must be in 0..65535, got 70000"),
        (["--port", "-1"], "--port must be in 0..65535, got -1"),
        (["--queue-max", "0"], "--queue-max must be >= 1, got 0"),
        (["--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["--drain-s", "-1"], "--drain-s must be >= 0, got -1"),
    ])
    def test_out_of_range_flag_exits_2(self, argv, message, tmp_path, capsys):
        rc = main(["serve", "--service-dir", str(tmp_path)] + argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.strip() == message
        assert not (tmp_path / "journal.jsonl").exists()


class TestPerfProfile:
    ARGV = ["perf", "profile", "mcf", "--length", "200", "--cores", "2"]

    def rows(self, out):
        return [line.split()[0] for line in out.splitlines()
                if line.strip() and line.split()[0] in
                ("trace_gen", "simulate", "total")]

    def test_prints_coarse_phases_and_backend(self, capsys):
        from repro.pcm import kernels

        assert main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert self.rows(out) == ["trace_gen", "simulate", "total"]
        assert "cycles=" in out
        assert "write_plan" not in out
        available = kernels.available_backends()
        label = "compiled" if "compiled" in available else "python"
        assert f"kernels={label}" in out
        assert f"kernel backends available: {'/'.join(available)}" in out

    def test_auto_falls_back_without_a_compiler(self, capsys, no_compiler):
        assert main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert self.rows(out) == ["trace_gen", "simulate", "total"]
        assert "kernels=python)" in out
        assert "compiled" not in out.split("kernel backends available:")[1]
