"""The centralized REPRO_* environment parser.

Every knob shares one validated parser and one error-message style
(``REPRO_X must be <shape>, got <value!r>``), so a typo'd setting fails
the same way no matter which subsystem reads it first.
"""

from __future__ import annotations

import pytest

from repro import envconfig


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in (
        "REPRO_JOBS", "REPRO_RETRIES", "REPRO_CELL_TIMEOUT",
        "REPRO_RETRY_BACKOFF", "REPRO_TRACE_LEN", "REPRO_CORES",
        "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_PROFILE", "REPRO_PIPELINE",
        "REPRO_KERNEL_BACKEND", "REPRO_KERNEL_CC",
        "REPRO_HEARTBEAT_S", "REPRO_MEM_BUDGET_MB",
        "REPRO_BREAKER_THRESHOLD", "REPRO_BREAKER_BACKOFF",
        "REPRO_DISK_MIN_MB", "REPRO_SHM_MIN_MB",
        "REPRO_SERVICE_HOST", "REPRO_SERVICE_PORT",
        "REPRO_SERVICE_QUEUE_MAX", "REPRO_SERVICE_DRAIN_S",
        "REPRO_SERVICE_DEADLINE_S", "REPRO_SERVICE_RETRY_AFTER_S",
        "REPRO_SERVICE_DIR",
    ):
        monkeypatch.delenv(name, raising=False)


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

    def test_retries(self, monkeypatch):
        assert envconfig.retries() == 2
        monkeypatch.setenv("REPRO_RETRIES", "0")
        assert envconfig.retries() == 0
        monkeypatch.setenv("REPRO_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            envconfig.retries()

    def test_cell_timeout(self, monkeypatch):
        assert envconfig.cell_timeout() is None
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
        assert envconfig.cell_timeout() is None  # 0 disables
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert envconfig.cell_timeout() == 2.5
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            envconfig.cell_timeout()

    def test_retry_backoff(self, monkeypatch):
        assert envconfig.retry_backoff() == 0.5
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        assert envconfig.retry_backoff() == 0.0
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "soon")
        with pytest.raises(ValueError, match="REPRO_RETRY_BACKOFF"):
            envconfig.retry_backoff()

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

    def test_profile_and_pipeline_flags(self, monkeypatch):
        assert envconfig.profile_fine() is False
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert envconfig.profile_fine() is True
        assert envconfig.pipeline_enabled() is True
        monkeypatch.setenv("REPRO_PIPELINE", "0")
        assert envconfig.pipeline_enabled() is False

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
        assert envconfig.breaker_threshold() == 5
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "2")
        assert envconfig.breaker_threshold() == 2
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "0")
        with pytest.raises(
            ValueError, match="REPRO_BREAKER_THRESHOLD must be >= 1"
        ):
            envconfig.breaker_threshold()
        assert envconfig.breaker_backoff_s() == 30.0
        monkeypatch.setenv("REPRO_BREAKER_BACKOFF", "0.1")
        assert envconfig.breaker_backoff_s() == 0.1

    def test_pressure_floors(self, monkeypatch):
        assert envconfig.disk_min_mb() == 64
        assert envconfig.shm_min_mb() == 16
        monkeypatch.setenv("REPRO_DISK_MIN_MB", "0")
        monkeypatch.setenv("REPRO_SHM_MIN_MB", "0")
        assert envconfig.disk_min_mb() == 0  # 0 disables the check
        assert envconfig.shm_min_mb() == 0
        monkeypatch.setenv("REPRO_DISK_MIN_MB", "-5")
        with pytest.raises(ValueError, match="REPRO_DISK_MIN_MB"):
            envconfig.disk_min_mb()

    def test_service_endpoint_knobs(self, monkeypatch, tmp_path):
        assert envconfig.service_host() == "127.0.0.1"
        assert envconfig.service_port() == 7733
        monkeypatch.setenv("REPRO_SERVICE_HOST", "  0.0.0.0  ")
        monkeypatch.setenv("REPRO_SERVICE_PORT", "0")  # 0 = ephemeral
        assert envconfig.service_host() == "0.0.0.0"
        assert envconfig.service_port() == 0
        monkeypatch.setenv("REPRO_SERVICE_PORT", "-1")
        with pytest.raises(ValueError, match="REPRO_SERVICE_PORT must be"):
            envconfig.service_port()
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "svc"))
        assert envconfig.service_dir() == tmp_path / "svc"

    def test_service_admission_knobs(self, monkeypatch):
        assert envconfig.service_queue_max() == 64
        assert envconfig.service_drain_s() == 30.0
        assert envconfig.service_retry_after_s() == 2.0
        monkeypatch.setenv("REPRO_SERVICE_QUEUE_MAX", "0")
        with pytest.raises(
            ValueError, match="REPRO_SERVICE_QUEUE_MAX must be >= 1"
        ):
            envconfig.service_queue_max()
        monkeypatch.setenv("REPRO_SERVICE_DRAIN_S", "1.5")
        assert envconfig.service_drain_s() == 1.5

    def test_service_deadline_zero_means_no_ttl(self, monkeypatch):
        assert envconfig.service_deadline_s() is None
        monkeypatch.setenv("REPRO_SERVICE_DEADLINE_S", "0")
        assert envconfig.service_deadline_s() is None
        monkeypatch.setenv("REPRO_SERVICE_DEADLINE_S", "45")
        assert envconfig.service_deadline_s() == 45.0
        monkeypatch.setenv("REPRO_SERVICE_DEADLINE_S", "-3")
        with pytest.raises(
            ValueError, match="REPRO_SERVICE_DEADLINE_S must be"
        ):
            envconfig.service_deadline_s()


class TestConsumersDelegate:
    """The old per-module parsers now route through envconfig."""

    def test_engine_defaults_delegate(self, monkeypatch):
        from repro.perf import engine

        monkeypatch.setenv("REPRO_JOBS", "5")
        monkeypatch.setenv("REPRO_RETRIES", "7")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.25")
        assert engine.default_jobs() == 5
        assert engine.default_retries() == 7
        assert engine.default_cell_timeout() == 1.5
        assert engine.default_backoff() == 0.25

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
            "REPRO_RETRIES": envconfig.retries,
            "REPRO_CELL_TIMEOUT": envconfig.cell_timeout,
            "REPRO_RETRY_BACKOFF": envconfig.retry_backoff,
            "REPRO_TRACE_LEN": envconfig.trace_length,
            "REPRO_CORES": envconfig.core_count,
            "REPRO_KERNEL_BACKEND": envconfig.kernel_backend,
            "REPRO_HEARTBEAT_S": envconfig.heartbeat_s,
            "REPRO_MEM_BUDGET_MB": envconfig.mem_budget_mb,
            "REPRO_BREAKER_THRESHOLD": envconfig.breaker_threshold,
            "REPRO_BREAKER_BACKOFF": envconfig.breaker_backoff_s,
            "REPRO_DISK_MIN_MB": envconfig.disk_min_mb,
            "REPRO_SHM_MIN_MB": envconfig.shm_min_mb,
            "REPRO_SERVICE_PORT": envconfig.service_port,
            "REPRO_SERVICE_QUEUE_MAX": envconfig.service_queue_max,
            "REPRO_SERVICE_DRAIN_S": envconfig.service_drain_s,
            "REPRO_SERVICE_DEADLINE_S": envconfig.service_deadline_s,
            "REPRO_SERVICE_RETRY_AFTER_S": envconfig.service_retry_after_s,
        }
        for name, accessor in cases.items():
            monkeypatch.setenv(name, "garbage")
            with pytest.raises(ValueError, match=f"{name} must be"):
                accessor()
            monkeypatch.delenv(name)
