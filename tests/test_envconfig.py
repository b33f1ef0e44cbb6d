"""The centralized REPRO_* environment parser.

Every knob shares one validated parser and one error-message style
(``REPRO_X must be <shape>, got <value!r>``), so a typo'd setting fails
the same way no matter which subsystem reads it first.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path

import pytest

from repro import envconfig

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)


class TestPrimitives:
    def test_env_int_default_and_parse(self, monkeypatch):
        assert envconfig.env_int("REPRO_TRACE_LEN", 7) == 7
        monkeypatch.setenv("REPRO_TRACE_LEN", "42")
        assert envconfig.env_int("REPRO_TRACE_LEN", 7) == 42

    def test_env_int_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "12k")
        with pytest.raises(ValueError, match="REPRO_TRACE_LEN must be"):
            envconfig.env_int("REPRO_TRACE_LEN", 7)

    def test_env_int_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_JOBS must be >= 1"):
            envconfig.env_int("REPRO_JOBS", 1, minimum=1)

    def test_env_float_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT must be"):
            envconfig.env_float("REPRO_CELL_TIMEOUT", 0.0)

    def test_env_flag(self, monkeypatch):
        assert envconfig.env_flag("REPRO_CACHE", True) is True
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert envconfig.env_flag("REPRO_CACHE", True) is False
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert envconfig.env_flag("REPRO_CACHE", False) is True


class TestAccessors:
    def test_jobs(self, monkeypatch):
        assert envconfig.jobs() >= 1  # CPU-count fallback
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert envconfig.jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "fast")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            envconfig.jobs()
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            envconfig.jobs()

    def test_retries(self):
        """Retry rounds are a constructor argument, not a knob."""
        from repro.perf.engine import RETRIES, CellRunner

        assert RETRIES == 2
        assert CellRunner(jobs=1).retries == 2
        assert CellRunner(jobs=1, retries=0).retries == 0
        with pytest.raises(ValueError, match="retries must be >= 0"):
            CellRunner(jobs=1, retries=-1)

    def test_cell_timeout(self, monkeypatch):
        assert envconfig.cell_timeout() is None
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
        assert envconfig.cell_timeout() is None  # 0 disables
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert envconfig.cell_timeout() == 2.5
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            envconfig.cell_timeout()

    def test_retry_backoff(self):
        """The retry backoff is a constructor argument, not a knob."""
        from repro.perf.engine import BACKOFF_S, CellRunner

        assert BACKOFF_S == 0.5
        assert CellRunner(jobs=1).backoff == 0.5
        assert CellRunner(jobs=1, backoff=0.0).backoff == 0.0

    def test_trace_length_and_cores(self, monkeypatch):
        assert envconfig.trace_length() == 1200
        assert envconfig.core_count() == 8
        monkeypatch.setenv("REPRO_TRACE_LEN", "321")
        monkeypatch.setenv("REPRO_CORES", "4")
        assert envconfig.trace_length() == 321
        assert envconfig.core_count() == 4
        monkeypatch.setenv("REPRO_CORES", "many")
        with pytest.raises(ValueError, match="REPRO_CORES"):
            envconfig.core_count()

    def test_cache_knobs(self, monkeypatch, tmp_path):
        assert envconfig.cache_enabled() is True
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert envconfig.cache_enabled() is False
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert envconfig.cache_dir() == tmp_path

    def test_kernel_backend(self, monkeypatch):
        assert envconfig.kernel_backend() == "auto"
        for name in envconfig.KERNEL_BACKENDS:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
            assert envconfig.kernel_backend() == name
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", " Compiled ")
        assert envconfig.kernel_backend() == "compiled"  # trimmed, folded
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "fortran")
        with pytest.raises(
            ValueError,
            match="REPRO_KERNEL_BACKEND must be one of "
                  "auto/python/numpy/compiled",
        ):
            envconfig.kernel_backend()

    def test_kernel_cc(self, monkeypatch):
        assert envconfig.kernel_cc() is None
        monkeypatch.setenv("REPRO_KERNEL_CC", "   ")
        assert envconfig.kernel_cc() is None  # blank means "search PATH"
        monkeypatch.setenv("REPRO_KERNEL_CC", " /usr/bin/cc ")
        assert envconfig.kernel_cc() == "/usr/bin/cc"


class TestConsumersDelegate:
    """The old per-module parsers now route through envconfig."""

    def test_engine_defaults_delegate(self, monkeypatch):
        from repro.perf import engine

        monkeypatch.setenv("REPRO_JOBS", "5")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1.5")
        runner = engine.CellRunner()
        assert runner.jobs == 5
        assert runner.cell_timeout == 1.5

    def test_common_delegates(self, monkeypatch):
        from repro.experiments import common

        monkeypatch.setenv("REPRO_TRACE_LEN", "99")
        monkeypatch.setenv("REPRO_CORES", "3")
        assert common.trace_length() == 99
        assert common.core_count() == 3

    def test_message_style_is_uniform(self, monkeypatch):
        """Every knob's error names the variable with 'must be'."""
        cases = [
            ("REPRO_JOBS", envconfig.jobs, "garbage", ""),
            ("REPRO_CELL_TIMEOUT", envconfig.cell_timeout, "garbage", ""),
            ("REPRO_TRACE_LEN", envconfig.trace_length, "garbage", ""),
            ("REPRO_TRACE_LEN", envconfig.trace_length, "-5", " >= 0, got -5"),
            ("REPRO_CORES", envconfig.core_count, "garbage", ""),
            ("REPRO_CORES", envconfig.core_count, "0", " >= 1, got 0"),
            ("REPRO_KERNEL_BACKEND", envconfig.kernel_backend, "garbage", ""),
            ("REPRO_CELL_TIMEOUT", envconfig.cell_timeout, "inf",
             " a finite number, got 'inf'"),
            ("REPRO_CELL_TIMEOUT", envconfig.cell_timeout, "nan",
             " a finite number, got 'nan'"),
            ("REPRO_CELL_TIMEOUT", envconfig.cell_timeout, "1e12",
             re.escape(f" <= {threading.TIMEOUT_MAX:g}, got 1e+12")),
        ]
        for name, accessor, value, detail in cases:
            monkeypatch.setenv(name, value)
            with pytest.raises(ValueError, match=f"^{name} must be{detail}"):
                accessor()
            monkeypatch.delenv(name)


class TestKnobSurface:
    """The ``REPRO_*`` names the code reads are exactly the documented ones."""

    KNOBS = {
        "REPRO_JOBS", "REPRO_TRACE_LEN", "REPRO_CORES", "REPRO_CACHE",
        "REPRO_CACHE_DIR", "REPRO_KERNEL_BACKEND", "REPRO_KERNEL_CC",
        "REPRO_CELL_TIMEOUT",
    }
    NAME = re.compile(r"REPRO_[A-Z_]+")

    def test_src_names_match_both_tables(self):
        in_src = set()
        for path in (ROOT / "src").rglob("*.py"):
            in_src |= set(self.NAME.findall(path.read_text()))
        in_docstring = {
            m.group(1)
            for m in re.finditer(r"^``(REPRO_[A-Z_]+)``", envconfig.__doc__,
                                 re.MULTILINE)
        }
        perf_doc = (ROOT / "docs" / "PERFORMANCE.md").read_text()
        in_docs = {
            m.group(1)
            for m in re.finditer(r"^\| `(REPRO_[A-Z_]+)` \|", perf_doc,
                                 re.MULTILINE)
        }
        assert in_src == self.KNOBS
        assert in_docstring == self.KNOBS
        assert in_docs == self.KNOBS
