"""Chaos tests for the supervision layer and the degraded paths.

Exercises each degraded path against an injected failure and pins the
one contract that matters: supervision changes *when* the engine's
fallbacks fire, never *what* a sweep returns.  Worker-side failures
reuse the ``test_chaos_engine`` pattern — monkeypatch in the parent,
misbehave only when ``os.getpid()`` differs from the test process (pool
workers are fork-started on Linux, so they inherit the patch).
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os

import pytest

from repro.cli import main
from repro.core import schemes
from repro.errors import CacheWriteError
from repro.pcm import kernels
from repro.pcm.kernels import BackendUnavailable
from repro.experiments import common
from repro.perf import cache as cache_mod
from repro.perf import engine
from repro.perf.cache import ResultCache
from repro.perf.engine import STATS, CellRunner
from repro.resilience import health, pressure
from repro.resilience.pressure import PRESSURE
from repro.traces import shm

pytestmark = pytest.mark.chaos

SMALL = dict(length=80, cores=2)
REAL_SIMULATE = engine.simulate_cell


def small_cell(bench="stream", scheme=None, **kwargs):
    params = {**SMALL, **kwargs}
    return common.cell(bench, scheme or schemes.baseline(), **params)


def payload(result) -> dict:
    return dataclasses.asdict(result)


def retire_compiled() -> bool:
    """Retire the in-process compiled backend as a runtime crash would.

    Returns False on a host where it cannot be built (``auto`` already
    runs python there).
    """
    try:
        backend = kernels.get_backend("compiled")
    except BackendUnavailable:
        return False
    with pytest.warns(RuntimeWarning, match="falling back"):
        backend._retire(RuntimeError("chaos: native kernel died"))
    return True


def no_segments(*args, **kwargs):
    raise OSError(errno.ENOSPC, "shm full")


def full_disk(self, key, result):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def clean_results(tmp_path):
    """Ground-truth payloads from a clean serial run (cache isolated)."""
    specs = [small_cell("stream"), small_cell("mcf")]
    runner = CellRunner(jobs=1, cache=ResultCache(tmp_path / "clean",
                                                  enabled=True))
    return specs, [payload(r) for r in runner.run_cells(specs)]


@pytest.fixture
def over_budget(monkeypatch):
    """RSS reads 150 MiB against a 100 MiB budget; disk/shm checks off."""
    monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "100")
    monkeypatch.setattr(pressure, "DISK_MIN_MB", 0)
    monkeypatch.setattr(pressure, "SHM_MIN_MB", 0)
    monkeypatch.setattr(pressure, "_rss_mb", lambda: 150.0)


class TestTaxonomy:
    def test_backend_unavailable_stays_a_runtime_error(self):
        # Callers catch RuntimeError; the ReproError base must not break
        # them.
        assert isinstance(BackendUnavailable("x"), RuntimeError)

    def test_environmental_oserror_is_errno_scoped(self):
        env = cache_mod.environmental_oserror
        assert env(OSError(errno.ENOSPC, "full"))
        assert env(OSError(errno.EACCES, "denied"))
        assert not env(OSError(errno.ENOENT, "missing"))
        assert not env(ValueError())


class TestCacheDegradation:
    def test_disk_full_degrades_to_cache_off_not_abort(
        self, tmp_path, monkeypatch, clean_results
    ):
        specs, expected = clean_results
        monkeypatch.setattr(ResultCache, "store", full_disk)
        runner = CellRunner(jobs=1, cache=ResultCache(tmp_path / "chaos",
                                                      enabled=True))
        results = runner.run_cells(specs)  # flushes internally; must not raise
        assert [payload(r) for r in results] == expected
        assert cache_mod.write_drops() == 2

        # Every later write is attempted and dropped again; nothing was
        # stored, so a load is a miss.
        runner.cache.store_async("deadbeef", results[0])
        runner.cache.flush()
        assert cache_mod.write_drops() == 3
        assert runner.cache.load("deadbeef") is None

    def test_sync_store_raises_classified_cache_write_error(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "c", enabled=True)
        result = REAL_SIMULATE(small_cell())
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (_ for _ in ()).throw(
                OSError(errno.ENOSPC, "No space left on device")),
        )
        with pytest.raises(CacheWriteError, match="cache write for k1"):
            cache.store("k1", result)

    def test_internal_store_errors_still_surface_at_flush(
        self, tmp_path, monkeypatch, clean_results
    ):
        specs, _ = clean_results

        def buggy_store(self, key, result):
            raise TypeError("injected unpicklable payload")

        monkeypatch.setattr(ResultCache, "store", buggy_store)
        cache = ResultCache(tmp_path / "chaos", enabled=True)
        cache.store_async("k1", REAL_SIMULATE(specs[0]))
        with pytest.raises(TypeError, match="injected unpicklable payload"):
            cache.flush()
        assert cache_mod.write_drops() == 0  # internal bugs are not drops

    def test_paused_cache_counts_drops(self, tmp_path):
        cache = ResultCache(tmp_path / "c", enabled=True)
        cache.pause_writes()
        cache.store_async("k1", REAL_SIMULATE(small_cell()))
        cache.flush()
        assert cache_mod.write_drops() == 1
        assert cache.info().write_drops == 1
        assert not cache._path("k1").exists()
        cache.resume_writes()
        cache.store_async("k1", REAL_SIMULATE(small_cell()))
        cache.flush()
        assert cache._path("k1").exists()


class TestShmDegradation:
    def test_publish_failure_degrades_to_worker_synthesis(
        self, tmp_path, monkeypatch, clean_results
    ):
        specs, expected = clean_results
        monkeypatch.setattr(shm.shared_memory, "SharedMemory", no_segments)
        runner = CellRunner(jobs=2,
                            cache=ResultCache(tmp_path / "chaos",
                                              enabled=True),
                            retries=0, backoff=0.0)
        results = runner.run_cells(specs)
        assert [payload(r) for r in results] == expected
        # Each publish failed and was suppressed; nothing was published.
        assert shm.PLANE.suppressed == 2
        assert shm.PLANE.published == 0
        assert STATS.serial_fallback_cells == 0  # workers synthesized fine


class TestKernelRetirement:
    def test_retired_backend_routes_auto_to_python(self):
        if not retire_compiled():
            pytest.skip("compiled backend cannot be built on this host")
        runner = CellRunner(jobs=1, kernel_backend="auto")
        before = STATS.kernel_python_picks
        assert runner._resolve_kernel() == "python"
        assert STATS.kernel_python_picks == before + 1
        assert STATS.kernel_compiled_picks == 0

    def test_forced_backend_is_honoured_after_retirement(self):
        if not retire_compiled():
            pytest.skip("compiled backend cannot be built on this host")
        runner = CellRunner(jobs=1, kernel_backend="compiled")
        # An explicit pick stays deterministic: the retired backend runs
        # and replays every kernel in pure Python.
        assert runner._resolve_kernel() == "compiled"
        assert STATS.kernel_python_picks == STATS.kernel_compiled_picks == 0


class TestPressure:
    def test_disk_low_evicts_then_pauses_then_resumes(
        self, tmp_path, monkeypatch
    ):
        import types

        monkeypatch.setattr(pressure, "DISK_MIN_MB", 100)
        monkeypatch.setattr(pressure, "SHM_MIN_MB", 0)
        cache = ResultCache(tmp_path / "c", enabled=True)
        # Seed two entries so eviction has something to chew on.
        for bench in ("stream", "mcf"):
            cache.store(bench, REAL_SIMULATE(small_cell(bench)))
        free = [50 * pressure.MB]
        monkeypatch.setattr(
            pressure.shutil, "disk_usage",
            lambda path: types.SimpleNamespace(free=free[0]),
        )
        PRESSURE.check(cache)
        assert cache.writes_paused  # eviction could not free enough
        assert PRESSURE.evicted_entries == 2
        assert "cache-writes-paused" in PRESSURE.degradations()
        kinds = [e["kind"] for e in PRESSURE.events()]
        assert "pressure_cache_evict" in kinds
        assert "pressure_cache_pause" in kinds
        assert PRESSURE.transitions == 2
        assert "2 pressure events" in STATS.summary()

        free[0] = 300 * pressure.MB  # 2x the floor: hysteresis satisfied
        PRESSURE.check(cache)
        assert not cache.writes_paused
        assert PRESSURE.degradations() == []
        assert PRESSURE.events()[-1]["kind"] == "pressure_cache_resume"

    def test_rss_over_budget_forces_serial(
        self, tmp_path, monkeypatch, over_budget
    ):
        runner = CellRunner(
            jobs=2, cache=ResultCache(tmp_path / "c", enabled=True)
        )
        runner.run_cells([small_cell("stream"), small_cell("mcf")])
        assert PRESSURE.serial_forced
        assert STATS.planner_serial_picks == 1
        assert STATS.planner_pool_picks == 0
        assert not engine.WARM_POOL.alive

        monkeypatch.setattr(pressure, "_rss_mb", lambda: 70.0)  # < 80%
        PRESSURE.check()
        assert not PRESSURE.serial_forced
        runner.run_cells([small_cell("lbm"), small_cell("mcf", seed=2)])
        assert STATS.planner_pool_picks == 1

    def test_rss_over_budget_skips_prefetch(self, tmp_path, over_budget):
        runner = CellRunner(
            jobs=2, cache=ResultCache(tmp_path / "c", enabled=True)
        )
        specs = [small_cell("stream"), small_cell("mcf")]
        assert runner.prefetch(specs) == 0
        assert PRESSURE.serial_forced
        assert not engine.WARM_POOL.alive
        assert STATS.prefetched == 0

    def test_shm_low_suspends_trace_plane(self, monkeypatch):
        import types

        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this host")
        monkeypatch.setattr(pressure, "SHM_MIN_MB", 100)
        monkeypatch.setattr(pressure, "DISK_MIN_MB", 0)
        free = [50 * pressure.MB]
        monkeypatch.setattr(
            pressure.shutil, "disk_usage",
            lambda path: types.SimpleNamespace(free=free[0]),
        )
        PRESSURE.check()
        assert shm.PLANE.suspended
        assert shm.PLANE.handle_for("stream", 80, 2, 1) is None
        assert shm.PLANE.suppressed == 1
        free[0] = 300 * pressure.MB
        PRESSURE.check()
        assert not shm.PLANE.suspended

    def test_rate_limit_skips_back_to_back_checks(self, monkeypatch):
        calls = []
        monkeypatch.setattr(PRESSURE, "check",
                            lambda cache=None: calls.append(cache))
        clk = [0.0]
        monkeypatch.setattr(PRESSURE, "_clock", lambda: clk[0])
        PRESSURE._last_check = 0.0
        PRESSURE.maybe_check()
        assert calls == []  # inside the interval
        clk[0] = pressure.CHECK_INTERVAL_S + 0.1
        PRESSURE.maybe_check()
        assert len(calls) == 1


class TestHealthCli:
    def test_healthy_snapshot_exits_zero(self, capsys):
        assert main(["health"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["status"] == "ok"
        assert snap["degradations"] == []
        assert snap["pressure"]["reading"] is not None  # measured now
        assert snap["engine"]["pressure_events"] == 0
        assert "write_drops" in snap["cache"]

    def test_over_budget_exits_nonzero(self, capsys, monkeypatch):
        # Nothing else has run in this process: the command itself must
        # measure the pressure it reports.
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "1")
        assert main(["health"]) == 1
        snap = json.loads(capsys.readouterr().out)
        assert snap["status"] == "degraded"
        assert "serial-forced" in snap["degradations"]
        assert snap["engine"]["pressure_events"] == 1
        assert snap["events"][-1]["kind"] == "pressure_mem_degrade"

    def test_snapshot_reflects_pressure_degradations(self, over_budget):
        PRESSURE.check()
        snap = health.snapshot()
        assert snap["status"] == "degraded"
        assert "serial-forced" in snap["degradations"]
        assert not health.healthy(snap)

    def test_cache_stats_reports_write_drops(self, capsys):
        cache_mod._WRITE_DROPS = 4
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "session async write drops" in out
        assert "4" in out


class TestDegradedByteIdentity:
    def test_fully_degraded_sweep_matches_clean_serial(
        self, tmp_path, monkeypatch, clean_results, over_budget
    ):
        """Every degraded path forced at once: a retired compiled
        backend, cache stores and trace segments failing with ENOSPC,
        and RSS over budget.  The sweep must return the clean-serial
        bytes."""
        specs, expected = clean_results
        # A forced REPRO_KERNEL_BACKEND (CI's compiled-smoke legs) would
        # run the retired backend itself; `auto` must route around it.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        retired = retire_compiled()
        monkeypatch.setattr(ResultCache, "store", full_disk)
        monkeypatch.setattr(shm.shared_memory, "SharedMemory", no_segments)
        PRESSURE.check()
        STATS.reset()  # count the degraded runs only
        runner = CellRunner(jobs=2, cache=ResultCache(tmp_path / "chaos",
                                                      enabled=True),
                            retries=0, backoff=0.0)
        results = runner.run_cells(specs)
        assert [payload(r) for r in results] == expected
        assert STATS.planner_serial_picks == 1  # memory pressure
        assert STATS.kernel_python_picks == 1
        assert STATS.kernel_compiled_picks == 0
        assert cache_mod.write_drops() == 2
        snap = health.snapshot(runner.cache)
        assert snap["degradations"] == ["serial-forced"]
        assert not health.healthy(snap)
        if retired:
            assert kernels.get_backend("compiled").dead

        # Serial execution never publishes trace segments; lift the
        # memory pressure (dropped writes keep the cells cold) and the
        # pooled rerun meets the failing /dev/shm.
        monkeypatch.setattr(pressure, "_rss_mb", lambda: 50.0)
        PRESSURE.check()
        results = runner.run_cells(specs)
        assert [payload(r) for r in results] == expected
        assert STATS.planner_pool_picks == 1
        assert shm.PLANE.suppressed == 2 and shm.PLANE.published == 0
        assert STATS.kernel_compiled_picks == 0
        assert cache_mod.write_drops() == 4

    def test_faults_sweep_notes_degraded_supervision(
        self, monkeypatch, over_budget
    ):
        monkeypatch.setenv("REPRO_TRACE_LEN", "60")
        monkeypatch.setenv("REPRO_CORES", "2")
        from repro.faults import sweep

        result = sweep.run_sweep(profile="light")
        assert any("degraded supervision" in note and "serial-forced" in note
                   for note in result.notes)
