"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core import schemes
from repro.experiments import runner


def bad_scheme_error(value):
    """argparse's own wording for a ``--scheme`` value outside the registry
    (the choice-list quoting differs between Python versions)."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("--scheme", choices=schemes.SCHEMES)
    with pytest.raises(argparse.ArgumentError) as error:
        probe.parse_args(["--scheme", value])
    return str(error.value)


class TestListCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "RPKI" in out

    def test_list_schemes(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "DIN" in out and "LazyC+PreRead" in out and "WP+LazyC" in out
        assert out.split() == sorted(schemes.SCHEMES)
        assert "eager" in out.split()


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
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "wrf", "--scheme", "bogus", "--length", "10",
                  "--cores", "1"])
        assert exit_info.value.code == 2


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

    def test_analyze_missing_file(self, tmp_path, capsys):
        path = tmp_path / "missing.trace"
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro analyze: error: ")
        assert str(path) in err and err.count("\n") == 1

    def test_analyze_malformed_text_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text("R 0x40 3\nX not-a-record\n")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"repro analyze: error: {path}:2: malformed record "
            "'X not-a-record'\n"
        )

    @pytest.mark.parametrize("content, message", [
        ("# header only\n", "empty trace"),
        ("R 0x40 3\nW 0x41 -2\n", "negative instruction gap -2"),
        ("R -0x80 0\n", "negative address -0x80"),
    ], ids=["empty", "negative-gap", "negative-address"])
    def test_analyze_bad_text_trace(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.trace"
        path.write_text(content)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"repro analyze: error: {path}: {message}\n")

    @pytest.mark.parametrize("content", [b"R 0x40 3\n", b"PK\x03\x04junk"],
                             ids=["not-a-zip", "broken-zip"])
    def test_analyze_npz_that_is_not_one(self, tmp_path, capsys, content):
        path = tmp_path / "t.npz"
        path.write_bytes(content)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"repro analyze: error: {path}: not an .npz trace archive")
        assert err.count("\n") == 1

    def test_analyze_empty_npz(self, tmp_path, capsys):
        path = tmp_path / "t.npz"
        assert main(["gen-trace", "wrf", str(path), "--length", "0"]) == 0
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"repro analyze: error: {path}: empty trace\n")

    def test_gen_trace_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "t.npz"
        assert main(["gen-trace", "wrf", str(path), "--length", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro gen-trace: error: ")
        assert str(path.parent) in err and err.count("\n") == 1

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


class TestBadNumbers:
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "mcf", "--cores", "0"],
         "repro simulate: error: argument --cores: must be >= 1, got 0"),
        (["compare", "mcf", "--cores", "0"],
         "repro compare: error: argument --cores: must be >= 1, got 0"),
        (["perf", "profile", "mcf", "--cores", "0"],
         "repro perf profile: error: argument --cores: must be >= 1, got 0"),
        (["simulate", "mcf", "--length", "-4"],
         "repro simulate: error: argument --length: must be >= 0, got -4"),
        (["gen-trace", "mcf", "x.npz", "--length", "-1"],
         "repro gen-trace: error: argument --length: must be >= 0, got -1"),
        (["perf", "profile", "mcf", "--length", "-1"],
         "repro perf profile: error: argument --length: must be >= 0, got -1"),
        (["experiment", "table1", "--jobs", "0"],
         "repro experiment: error: argument --jobs: must be >= 1, got 0"),
        (["simulate", "mcf", "--cores", "x"],
         "repro simulate: error: argument --cores: invalid int value: 'x'"),
        (["simulate", "mcf", "--scheme", "nope"],
         f"repro simulate: error: {bad_scheme_error('nope')}"),
        (["perf", "profile", "mcf", "--scheme", "nope"],
         f"repro perf profile: error: {bad_scheme_error('nope')}"),
        (["simulate", "mcf", "--seed", "-1"],
         "repro simulate: error: argument --seed: must be >= 0, got -1"),
        (["compare", "mcf", "--seed", "-1"],
         "repro compare: error: argument --seed: must be >= 0, got -1"),
        (["gen-trace", "mcf", "x.npz", "--seed", "-1"],
         "repro gen-trace: error: argument --seed: must be >= 0, got -1"),
        (["perf", "profile", "mcf", "--seed", "-1"],
         "repro perf profile: error: argument --seed: must be >= 0, got -1"),
        (["analyze"],
         "repro analyze: error: the following arguments are required: path"),
        (["gen-trace", "mcf", "x.npz", "--length", "1.5"],
         "repro gen-trace: error: argument --length: invalid int value: "
         "'1.5'"),
        (["compare", "wrf", "--length", "0", "--cores", "1"],
         "repro compare: error: argument --length: must be >= 1, got 0"),
    ])
    def test_exits_2_with_one_stderr_line(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == message + "\n"

    def test_runner_module_exits_2_with_one_stderr_line(self):
        """``python -m repro.experiments.runner`` shares the flag parser."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "--jobs", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "python -m repro.experiments.runner: error: argument --jobs: "
            "must be >= 1, got 0\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
        (["--kernel-backend", "nope"], "argument --kernel-backend: invalid "
         "choice: 'nope'"),
        (["figure99"], "unknown experiments: ['figure99']"),
    ])
    def test_runner_main_returns_2_with_one_stderr_line(
        self, argv, message, capsys
    ):
        assert runner.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            f"python -m repro.experiments.runner: error: {message}")
        assert err.count("\n") == 1

    def test_serve_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    def test_health_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["health"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'health'" in capsys.readouterr().err

    def test_faults_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["faults", "sweep"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'faults'" in capsys.readouterr().err


class TestBadEnvValues:
    """A bad ``REPRO_*`` value is one stderr line and status 2, like a
    bad flag."""

    CASES = [
        ("REPRO_JOBS", "0", "REPRO_JOBS must be >= 1, got 0"),
        ("REPRO_CELL_TIMEOUT", "-1", "REPRO_CELL_TIMEOUT must be >= 0, got -1"),
        ("REPRO_CELL_TIMEOUT", "inf",
         "REPRO_CELL_TIMEOUT must be a finite number, got 'inf'"),
        ("REPRO_TRACE_LEN", "-5", "REPRO_TRACE_LEN must be >= 1, got -5"),
        ("REPRO_TRACE_LEN", "0", "REPRO_TRACE_LEN must be >= 1, got 0"),
        ("REPRO_KERNEL_BACKEND", "bogus", "REPRO_KERNEL_BACKEND must be one "
         "of auto/python/numpy/compiled, got 'bogus'"),
    ]

    def test_runner_module_exits_2_with_one_stderr_line(self):
        env = dict(os.environ, REPRO_JOBS="0")
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "table1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "python -m repro.experiments.runner: error: "
            "REPRO_JOBS must be >= 1, got 0\n"
        )

    @pytest.mark.parametrize("name, value, message", CASES)
    def test_runner_main_returns_2(self, name, value, message, monkeypatch,
                                   capsys):
        monkeypatch.setenv(name, value)
        assert runner.main(["figure12"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"python -m repro.experiments.runner: error: {message}\n"

    @pytest.mark.parametrize("name, value, message", CASES)
    def test_repro_experiment_returns_2(self, name, value, message,
                                        monkeypatch, capsys):
        monkeypatch.setenv(name, value)
        assert main(["experiment", "figure12"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"repro experiment: error: {message}\n"

    def test_value_error_inside_a_cell_still_raises(self, monkeypatch):
        from repro.perf import batch

        def broken(spec):
            raise ValueError("a bug inside a cell")

        monkeypatch.setenv("REPRO_TRACE_LEN", "60")
        monkeypatch.setattr(batch, "simulate_cell", broken)
        with pytest.raises(ValueError, match="a bug inside a cell"):
            runner.main(["figure12", "--jobs", "1"])


class TestPerfProfile:
    ARGV = ["perf", "profile", "mcf", "--length", "200", "--cores", "2"]

    def rows(self, out):
        return [line.split()[0] for line in out.splitlines()
                if line.strip() and line.split()[0] in
                ("trace_gen", "simulate", "total")]

    def test_prints_coarse_phases_and_backend(self, capsys):
        from repro.pcm import kernels

        # Explicit `auto`: a REPRO_KERNEL_BACKEND in the environment
        # would otherwise pick the backend.
        assert main(self.ARGV + ["--kernel-backend", "auto"]) == 0
        out = capsys.readouterr().out
        assert self.rows(out) == ["trace_gen", "simulate", "total"]
        assert "cycles=" in out
        assert "write_plan" not in out
        available = kernels.available_backends()
        label = "compiled" if "compiled" in available else "python"
        assert f"kernels={label}" in out
        assert f"kernel backends available: {'/'.join(available)}" in out

    def test_auto_falls_back_without_a_compiler(self, capsys, no_compiler):
        assert main(self.ARGV + ["--kernel-backend", "auto"]) == 0
        out = capsys.readouterr().out
        assert self.rows(out) == ["trace_gen", "simulate", "total"]
        assert "kernels=python)" in out
        assert "compiled" not in out.split("kernel backends available:")[1]

    def test_kernel_backend_defaults_to_the_environment(self, capsys,
                                                        monkeypatch):
        """Like ``repro experiment``: no flag means REPRO_KERNEL_BACKEND
        (``numpy``, which ``auto`` never picks), and the flag wins."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert main(self.ARGV) == 0
        assert "kernels=numpy)" in capsys.readouterr().out
        assert main(self.ARGV + ["--kernel-backend", "python"]) == 0
        assert "kernels=python)" in capsys.readouterr().out
