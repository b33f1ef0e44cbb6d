"""Chaos tests for the degraded paths.

Each degraded path is triggered by the error it handles: a retired
compiled backend, a cache store failing with ENOSPC, a ``SharedMemory``
that refuses every segment, and pool workers that crash.  The tests
inject each error and pin the one contract that matters: a degraded
path changes *how* a cell is computed or kept, never *what* a sweep
returns.  Worker-side failures reuse the ``test_chaos_engine`` wrapper —
monkeypatch in the parent, misbehave only when ``os.getpid()`` differs
from the test process (pool workers are fork-started on Linux, so they
inherit the patch).
"""

from __future__ import annotations

import dataclasses
import errno
import os

import pytest

from repro.core import schemes
from repro.errors import CacheWriteError
from repro.pcm import kernels
from repro.pcm.kernels import BackendUnavailable
from repro.experiments import common
from repro.perf import cache as cache_mod
from repro.perf import engine
from repro.perf.cache import ResultCache
from repro.perf.engine import STATS, CellRunner
from repro.traces import shm
from tests.test_chaos_engine import crash_in_worker

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

    def test_write_drops_show_in_engine_summary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ResultCache, "store", full_disk)
        cache = ResultCache(tmp_path / "c", enabled=True)
        assert "write drops" not in STATS.summary()
        cache.store_async("k1", REAL_SIMULATE(small_cell()))
        cache.flush()
        assert "cache: 1 write drops, 0 corrupt evictions" in STATS.summary()


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
        assert "trace plane: 0 segments, 0 reuses, 2 suppressed" in (
            STATS.summary()
        )
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


class TestDegradedByteIdentity:
    def test_fully_degraded_sweep_matches_clean_serial(
        self, tmp_path, monkeypatch, clean_results
    ):
        """Every degraded path forced in one pooled run: a retired
        compiled backend, cache stores failing with ENOSPC, a
        ``SharedMemory`` that refuses every segment, and workers that
        crash with no retry round left, so the batch falls back to
        serial.  The sweep must return the clean-serial bytes."""
        specs, expected = clean_results
        # A forced REPRO_KERNEL_BACKEND (CI's compiled-smoke legs) would
        # run the retired backend itself; `auto` must route around it.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        retired = retire_compiled()
        monkeypatch.setattr(ResultCache, "store", full_disk)
        monkeypatch.setattr(shm.shared_memory, "SharedMemory", no_segments)
        monkeypatch.setattr(engine, "simulate_cell", crash_in_worker)
        STATS.reset()  # count the degraded run only
        runner = CellRunner(jobs=2, cache=ResultCache(tmp_path / "chaos",
                                                      enabled=True),
                            retries=0, backoff=0.0)
        results = runner.run_cells(specs)
        assert [payload(r) for r in results] == expected
        assert STATS.planner_pool_picks == 1
        assert STATS.kernel_python_picks == 1
        assert STATS.kernel_compiled_picks == 0
        assert cache_mod.write_drops() == 2
        assert shm.PLANE.suppressed == 2 and shm.PLANE.published == 0
        assert STATS.worker_crashes == 2
        assert STATS.serial_fallback_cells == 2
        if retired:
            assert kernels.get_backend("compiled").dead
        summary = STATS.summary()
        assert "2 serial fallbacks" in summary
        assert "2 write drops" in summary
        assert "2 suppressed" in summary
