"""Chaos tests for the supervision layer (PR 8).

Exercises each supervisor against an injected failure and pins the one
contract that matters: supervision changes *when* the engine's fallbacks
fire, never *what* a sweep returns.  Worker-side failures reuse the
``test_chaos_engine`` pattern — monkeypatch in the parent, misbehave only
when ``os.getpid()`` differs from the test process (pool workers are
fork-started on Linux, so they inherit the patch).
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import main
from repro.core import schemes
from repro.errors import (
    CacheWriteError,
    ResourcePressureError,
    TracePlaneError,
    WorkerCrashError,
)
from repro.pcm.kernels import BackendUnavailable
from repro.experiments import common
from repro.perf import cache as cache_mod
from repro.perf import engine
from repro.perf.cache import ResultCache
from repro.perf.engine import STATS, CellRunner
from repro.resilience import breaker as breaker_mod
from repro.resilience import events, health, pressure, taxonomy
from repro.resilience.breaker import CircuitBreaker, breaker
from repro.resilience.pressure import PRESSURE
from repro.traces import shm

pytestmark = pytest.mark.chaos

SMALL = dict(length=80, cores=2)
MAIN_PID = os.getpid()
REAL_SIMULATE = engine.simulate_cell


def small_cell(bench="stream", scheme=None, **kwargs):
    params = {**SMALL, **kwargs}
    return common.cell(bench, scheme or schemes.baseline(), **params)


def payload(result) -> dict:
    return dataclasses.asdict(result)


def hang_in_worker(spec):
    """Stop heartbeating without dying (the watchdog's target)."""
    if os.getpid() != MAIN_PID:
        time.sleep(60)
    return REAL_SIMULATE(spec)


@pytest.fixture
def clean_results(tmp_path):
    """Ground-truth payloads from a clean serial run (cache isolated)."""
    specs = [small_cell("stream"), small_cell("mcf")]
    runner = CellRunner(jobs=1, cache=ResultCache(tmp_path / "clean",
                                                  enabled=True))
    return specs, [payload(r) for r in runner.run_cells(specs)]


class TestTaxonomy:
    def test_library_errors_carry_their_attributes(self):
        cases = [
            (CacheWriteError("x"), ("cache", False, "cache-off")),
            (TracePlaneError("x"), ("shm", False, "worker-synthesis")),
            (ResourcePressureError("x"), ("resource", False, "serial")),
            (WorkerCrashError("x"), ("execution", True, "serial")),
            (BackendUnavailable("x"), ("kernel", False, "python")),
        ]
        for exc, expected in cases:
            c = taxonomy.classify(exc)
            assert (c.category, c.retryable, c.degraded_mode) == expected

    def test_backend_unavailable_stays_a_runtime_error(self):
        # PR 6 callers catch RuntimeError; re-homing onto the taxonomy
        # must not break them.
        assert isinstance(BackendUnavailable("x"), RuntimeError)

    def test_foreign_exceptions_map_by_type_and_errno(self):
        c = taxonomy.classify(OSError(errno.ENOSPC, "no space"))
        assert (c.category, c.retryable) == ("resource", False)
        c = taxonomy.classify(BrokenProcessPool("pool died"))
        assert (c.category, c.retryable, c.degraded_mode) == (
            "execution", True, "serial")
        c = taxonomy.classify(TimeoutError())
        assert c.retryable and c.degraded_mode == "serial"
        c = taxonomy.classify(MemoryError())
        assert (c.category, c.degraded_mode) == ("resource", "serial")

    def test_unknown_exceptions_are_internal(self):
        c = taxonomy.classify(ValueError("a plain bug"))
        assert (c.category, c.retryable, c.degraded_mode) == (
            "internal", False, None)

    def test_environmental_oserror_is_errno_scoped(self):
        assert taxonomy.environmental_oserror(OSError(errno.ENOSPC, "full"))
        assert taxonomy.environmental_oserror(OSError(errno.EACCES, "denied"))
        assert not taxonomy.environmental_oserror(
            OSError(errno.ENOENT, "missing"))
        assert not taxonomy.environmental_oserror(ValueError())

    def test_classification_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="unknown taxonomy category"):
            taxonomy.Classification("gremlins", False, None)


class TestCircuitBreaker:
    def make(self, threshold=2, backoff_s=10.0):
        clk = [0.0]
        b = CircuitBreaker("test", threshold=threshold, backoff_s=backoff_s,
                           clock=lambda: clk[0])
        return b, clk

    def test_open_half_open_close_cycle(self):
        b, clk = self.make()
        assert b.allow() and b.state == "closed"
        b.record_failure(RuntimeError("one"))
        assert b.state == "closed"  # under threshold
        b.record_failure(RuntimeError("two"))
        assert b.state == "open" and b.is_open()
        assert not b.allow()
        clk[0] = 10.0  # backoff elapsed: next caller is the probe
        assert b.allow() and b.state == "half_open"
        assert not b.allow()  # probe already in flight
        b.record_success()
        assert b.state == "closed" and not b.is_open()
        assert b.opens == 1 and b.closes == 1
        assert STATS.breaker_opens == 1
        assert STATS.breaker_probes == 1
        assert STATS.breaker_closes == 1
        kinds = [e["kind"] for e in events()]
        assert kinds == ["breaker_open", "breaker_half_open", "breaker_close"]

    def test_failed_probe_doubles_backoff_capped(self):
        b, clk = self.make(backoff_s=10.0)
        b.record_failure(RuntimeError("x"))
        b.record_failure(RuntimeError("x"))
        clk[0] = 10.0
        assert b.allow()  # probe
        b.record_failure(RuntimeError("still broken"))  # backoff -> 20s
        assert b.state == "open"
        clk[0] = 29.0
        assert not b.allow()
        clk[0] = 30.0
        assert b.allow()
        for _ in range(6):  # keep failing: factor caps at 8x
            b.record_failure(RuntimeError("x"))
            clk[0] += 80.0
            assert b.allow()
        assert b.snapshot()["backoff_s"] == 80.0

    def test_abandoned_probe_frees_the_slot(self):
        b, clk = self.make()
        b.record_failure(RuntimeError("x"))
        b.record_failure(RuntimeError("x"))
        clk[0] = 10.0
        assert b.allow()
        assert not b.allow()  # probe held
        b.abandon_probe()  # probe never exercised the dependency
        assert b.allow()  # next caller may probe instead
        assert b.state == "half_open"

    def test_success_resets_failure_streak(self):
        b, _ = self.make(threshold=2)
        b.record_failure(RuntimeError("x"))
        b.record_success()
        b.record_failure(RuntimeError("x"))
        assert b.state == "closed"  # streak broken; never reached 2

    def test_trip_forces_open(self):
        b = breaker("cache")
        b.trip("forced by test")
        assert b.is_open()
        assert breaker("cache") is b  # registry returns the singleton


class TestCacheBreaker:
    def test_disk_full_degrades_to_cache_off_not_abort(
        self, tmp_path, monkeypatch, clean_results
    ):
        specs, expected = clean_results
        monkeypatch.setattr(breaker_mod, "THRESHOLD", 2)

        def full_disk(self, key, result):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ResultCache, "store", full_disk)
        runner = CellRunner(jobs=1, cache=ResultCache(tmp_path / "chaos",
                                                      enabled=True))
        results = runner.run_cells(specs)  # flushes internally; must not raise
        assert [payload(r) for r in results] == expected
        assert cache_mod.write_drops() == 2
        assert breaker("cache").is_open()
        assert STATS.breaker_opens == 1

        # With the breaker open, further writes are dropped at the door
        # (no filesystem calls) and loads short-circuit to a miss.
        runner.cache.store_async("deadbeef", results[0])
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


class TestWatchdog:
    def test_hung_worker_reclaimed_before_deadline(
        self, tmp_path, monkeypatch, clean_results
    ):
        specs, expected = clean_results
        monkeypatch.setattr(engine, "simulate_cell", hang_in_worker)
        chaos = CellRunner(jobs=2,
                           cache=ResultCache(tmp_path / "chaos", enabled=True),
                           retries=0, cell_timeout=30.0, backoff=0.0,
                           heartbeat_s=0.5)
        start = time.monotonic()
        results = chaos.run_cells(specs)
        elapsed = time.monotonic() - start
        # The deadline alone would hold the round for 30s; the watchdog
        # reclaims it after ~0.5s of silence.
        assert elapsed < 10
        assert [payload(r) for r in results] == expected
        assert STATS.watchdog_stalls >= 1
        assert STATS.serial_fallback_cells == 2
        assert STATS.cell_timeouts == 0  # reclaimed *before* the deadline
        assert any(e["kind"] == "watchdog_stall" for e in events())

    def test_slow_but_alive_worker_is_not_reclaimed(self, tmp_path):
        # A clean pooled run under a tight heartbeat window: workers pulse
        # per cell (and mid-cell via the armed event loop), so nothing
        # stalls even though cells take longer than the window.
        specs = [small_cell("stream"), small_cell("mcf")]
        runner = CellRunner(jobs=2,
                            cache=ResultCache(tmp_path / "c", enabled=True),
                            retries=0, heartbeat_s=1.0)
        runner.run_cells(specs)
        assert STATS.watchdog_stalls == 0
        assert STATS.serial_fallback_cells == 0

    def test_heartbeat_knob_validation(self):
        with pytest.raises(ValueError, match="heartbeat_s must be >= 0"):
            CellRunner(jobs=1, heartbeat_s=-1.0)
        assert CellRunner(jobs=1, heartbeat_s=0).heartbeat_s is None


class TestShmBreaker:
    def test_publish_failure_opens_breaker_and_degrades(
        self, tmp_path, monkeypatch, clean_results
    ):
        specs, expected = clean_results
        monkeypatch.setattr(breaker_mod, "THRESHOLD", 1)

        def no_segments(*args, **kwargs):
            raise OSError(errno.ENOSPC, "shm full")

        monkeypatch.setattr(shm.shared_memory, "SharedMemory", no_segments)
        runner = CellRunner(jobs=2,
                            cache=ResultCache(tmp_path / "chaos",
                                              enabled=True),
                            retries=0, backoff=0.0)
        results = runner.run_cells(specs)
        assert [payload(r) for r in results] == expected
        assert breaker("shm").is_open()
        # First publish fed the breaker; the second was suppressed by it.
        assert shm.PLANE.suppressed == 2
        assert shm.PLANE.published == 0
        assert STATS.serial_fallback_cells == 0  # workers synthesized fine


class TestKernelBreaker:
    def test_open_breaker_routes_auto_to_python(self):
        runner = CellRunner(jobs=1, kernel_backend="auto")
        breaker("kernel").trip("compiled backend keeps dying")
        before = STATS.kernel_python_picks
        assert runner._resolve_kernel() == "python"
        assert STATS.kernel_python_picks == before + 1

    def test_forced_backend_bypasses_the_breaker(self):
        breaker("kernel").trip("forced open")
        runner = CellRunner(jobs=1, kernel_backend="python")
        assert runner._resolve_kernel() == "python"

    def test_python_batch_abandons_the_half_open_probe(self):
        clk = [0.0]
        kb = CircuitBreaker("kernel", threshold=1, backoff_s=10.0,
                            clock=lambda: clk[0])
        breaker_mod._BREAKERS["kernel"] = kb
        kb.record_failure(RuntimeError("backend died"))
        clk[0] = 10.0
        runner = CellRunner(jobs=1, kernel_backend="auto")
        name = runner._resolve_kernel()  # consumes the half-open probe
        if name == "python":
            # The engine picked python anyway: the probe proves nothing
            # about native backends and must be released, not leaked.
            runner._observe_kernel_health("python")
            assert kb.state == "half_open"
            assert kb.allow()  # probe slot is free again
        else:
            runner._observe_kernel_health(name)
            assert kb.state in ("closed", "open")  # probe resolved


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
        kinds = [e["kind"] for e in events()]
        assert "pressure_cache_evict" in kinds
        assert "pressure_cache_pause" in kinds
        assert STATS.pressure_events >= 2

        free[0] = 300 * pressure.MB  # 2x the floor: hysteresis satisfied
        PRESSURE.check(cache)
        assert not cache.writes_paused
        assert PRESSURE.degradations() == []
        assert any(e["kind"] == "pressure_cache_resume" for e in events())

    @pytest.fixture
    def over_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "100")
        monkeypatch.setattr(pressure, "DISK_MIN_MB", 0)
        monkeypatch.setattr(pressure, "SHM_MIN_MB", 0)
        monkeypatch.setattr(pressure, "_rss_mb", lambda: 150.0)

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
        assert set(snap["breakers"]) == {"kernel", "cache", "shm"}
        assert snap["watchdog"]["stalls"] == 0
        assert "write_drops" in snap["cache"]

    def test_tripped_breaker_exits_nonzero(self, capsys):
        assert main(["health", "--trip", "cache"]) == 1
        snap = json.loads(capsys.readouterr().out)
        assert snap["status"] == "degraded"
        assert "breaker:cache" in snap["degradations"]
        assert snap["breakers"]["cache"]["state"] == "open"
        assert any(e["kind"] == "breaker_open" for e in snap["events"])

    def test_snapshot_reflects_pressure_degradations(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "100")
        monkeypatch.setattr(pressure, "DISK_MIN_MB", 0)
        monkeypatch.setattr(pressure, "SHM_MIN_MB", 0)
        monkeypatch.setattr(pressure, "_rss_mb", lambda: 150.0)
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
        self, tmp_path, monkeypatch, clean_results
    ):
        """Every supervisor forcing its degraded path at once: open
        breakers for all three dependencies plus memory-pressure serial
        forcing.  The sweep must still return the clean-serial bytes."""
        specs, expected = clean_results
        # The open kernel breaker only stays open when `auto` routes
        # around the native backends; a forced REPRO_KERNEL_BACKEND
        # (CI's compiled-smoke legs) bypasses the breaker, and its clean
        # native batches would close it mid-sweep.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        for name in ("kernel", "cache", "shm"):
            breaker(name).trip("chaos: everything is on fire")
        monkeypatch.setenv("REPRO_MEM_BUDGET_MB", "100")
        monkeypatch.setattr(pressure, "DISK_MIN_MB", 0)
        monkeypatch.setattr(pressure, "SHM_MIN_MB", 0)
        monkeypatch.setattr(pressure, "_rss_mb", lambda: 150.0)
        PRESSURE.check()
        runner = CellRunner(jobs=2, cache=ResultCache(tmp_path / "chaos",
                                                      enabled=True))
        results = runner.run_cells(specs)
        assert [payload(r) for r in results] == expected
        assert not health.healthy()
        snap = health.snapshot(runner.cache)
        assert {"breaker:cache", "breaker:kernel", "breaker:shm",
                "serial-forced"} <= set(snap["degradations"])

    def test_faults_sweep_notes_degraded_supervision(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "60")
        monkeypatch.setenv("REPRO_CORES", "2")
        from repro.faults import sweep

        breaker("cache").trip("chaos")
        result = sweep.run_sweep(profile="light")
        assert any("degraded supervision" in note for note in result.notes)
