"""The centralized REPRO_* environment parser.

Every knob shares one validated parser and one error-message style
(``REPRO_X must be <shape>, got <value!r>``), so a typo'd setting fails
the same way no matter which subsystem reads it first.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from types import SimpleNamespace

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

    def test_heartbeat_s(self, monkeypatch):
        assert envconfig.heartbeat_s() is None
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")
        assert envconfig.heartbeat_s() is None  # 0 disables
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "1.5")
        assert envconfig.heartbeat_s() == 1.5
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "-1")
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT_S"):
            envconfig.heartbeat_s()

    def test_mem_budget_mb(self, monkeypatch):
        assert envconfig.mem_budget_mb() is None
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "0")
        assert envconfig.mem_budget_mb() is None  # 0 disables
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "512")
        assert envconfig.mem_budget_mb() == 512
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "-1")
        with pytest.raises(ValueError, match="REPRO_MEM_BUDGET_MB"):
            envconfig.mem_budget_mb()

    def test_breaker_knobs(self, monkeypatch):
        """Breaker defaults are module constants, read per call."""
        from repro.resilience import breaker

        b = breaker.CircuitBreaker("test")
        assert b.threshold == 5
        assert b.snapshot()["backoff_s"] == 30.0
        monkeypatch.setattr(breaker, "THRESHOLD", 2)
        assert b.threshold == 2
        assert breaker.CircuitBreaker("test", threshold=7).threshold == 7

    def test_pressure_floors(self, monkeypatch, tmp_path):
        """The disk and /dev/shm floors are constants; 0 disables one."""
        from repro.perf.cache import ResultCache
        from repro.resilience import pressure

        assert pressure.DISK_MIN_MB == 64
        assert pressure.SHM_MIN_MB == 16
        free = [100 * pressure.MB]
        monkeypatch.setattr(pressure.shutil, "disk_usage",
                            lambda path: SimpleNamespace(free=free[0]))
        cache = ResultCache(tmp_path, enabled=True)
        monitor = pressure.PressureMonitor()
        reading = monitor.check(cache)
        assert reading["cache_disk_min_mb"] == 64
        assert reading["shm_min_mb"] == 16
        monkeypatch.setattr(pressure, "DISK_MIN_MB", 0)
        monkeypatch.setattr(pressure, "SHM_MIN_MB", 0)
        free[0] = 1 * pressure.MB  # under both default floors
        reading = monitor.check(cache)
        assert reading["cache_disk_min_mb"] == 0
        assert monitor.degradations() == []
        assert not cache.writes_paused

    def test_service_endpoint_knobs(self, monkeypatch, tmp_path):
        """``repro serve`` defaults live in the daemon, not the env."""
        from repro.service.daemon import ServiceDaemon

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        daemon = ServiceDaemon()
        assert daemon.host == "127.0.0.1"
        assert daemon.port == 7733
        assert daemon.service_dir == tmp_path / "service"
        assert ServiceDaemon(service_dir=tmp_path / "svc").service_dir == (
            tmp_path / "svc"
        )

    def test_service_admission_knobs(self, tmp_path):
        from repro.service.admission import AdmissionController
        from repro.service.daemon import ServiceDaemon

        ctrl = AdmissionController()
        assert ctrl.queue_max == 64
        assert ctrl.retry_after_s == 2.0
        with pytest.raises(ValueError, match="queue_max must be >= 1"):
            AdmissionController(queue_max=0)
        assert ServiceDaemon(service_dir=tmp_path).drain_s == 30.0

    def test_service_deadline_zero_means_no_ttl(self, tmp_path):
        from repro.service.daemon import ServiceDaemon

        for deadline_s, ttl in ((None, None), (0, None), (-3, None),
                                (45, 45)):
            daemon = ServiceDaemon(service_dir=tmp_path, deadline_s=deadline_s)
            assert daemon.default_deadline_s == ttl


class TestConsumersDelegate:
    """The old per-module parsers now route through envconfig."""

    def test_engine_defaults_delegate(self, monkeypatch):
        from repro.perf import engine

        monkeypatch.setenv("REPRO_JOBS", "5")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1.5")
        assert engine.default_jobs() == 5
        assert engine.default_cell_timeout() == 1.5

    def test_common_delegates(self, monkeypatch):
        from repro.experiments import common

        monkeypatch.setenv("REPRO_TRACE_LEN", "99")
        monkeypatch.setenv("REPRO_CORES", "3")
        assert common.trace_length() == 99
        assert common.core_count() == 3

    def test_message_style_is_uniform(self, monkeypatch):
        """Every knob's error names the variable with 'must be'."""
        cases = {
            "REPRO_JOBS": envconfig.jobs,
            "REPRO_CELL_TIMEOUT": envconfig.cell_timeout,
            "REPRO_TRACE_LEN": envconfig.trace_length,
            "REPRO_CORES": envconfig.core_count,
            "REPRO_KERNEL_BACKEND": envconfig.kernel_backend,
            "REPRO_HEARTBEAT_S": envconfig.heartbeat_s,
            "REPRO_MEM_BUDGET_MB": envconfig.mem_budget_mb,
        }
        for name, accessor in cases.items():
            monkeypatch.setenv(name, "garbage")
            with pytest.raises(ValueError, match=f"{name} must be"):
                accessor()
            monkeypatch.delenv(name)


class TestKnobSurface:
    """The ``REPRO_*`` names the code reads are exactly the documented ones."""

    KNOBS = {
        "REPRO_JOBS", "REPRO_TRACE_LEN", "REPRO_CORES", "REPRO_CACHE",
        "REPRO_CACHE_DIR", "REPRO_KERNEL_BACKEND", "REPRO_KERNEL_CC",
        "REPRO_CELL_TIMEOUT", "REPRO_HEARTBEAT_S", "REPRO_MEM_BUDGET_MB",
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
