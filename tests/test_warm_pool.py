"""Warm pool, shared-memory trace plane, and cross-experiment pipelining.

The contract under test: a batch executed over the warm process pool
with parent-published shared-memory traces — prefetched or not — is
**byte-identical** (hash comparison over full result payloads) to
serial in-worker synthesis, and the PR 3 crash ladder still holds, now
expressed as generation recycling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.core import schemes
from repro.experiments import common
from repro.perf import engine
from repro.perf.cache import ResultCache
from repro.perf.engine import STATS, CellRunner
from repro.perf.pool import WARM_POOL, WarmPool
from repro.traces import shm
from repro.traces.workload import homogeneous_workload

SMALL = dict(length=80, cores=2)
MAIN_PID = os.getpid()
REAL_SIMULATE = engine.simulate_cell
REPO_ROOT = Path(__file__).resolve().parents[1]


def small_cell(bench="stream", scheme=None, **kwargs):
    params = {**SMALL, **kwargs}
    return common.cell(bench, scheme or schemes.baseline(), **params)


def varied_batch():
    """Two benches x three schemes, plus one exact duplicate."""
    specs = [
        small_cell(bench, scheme)
        for bench in ("stream", "mcf")
        for scheme in (schemes.baseline(), schemes.din(), schemes.lazyc())
    ]
    specs.append(small_cell("stream", schemes.baseline()))  # in-batch dup
    return specs


def sweep_hash(results) -> str:
    """One hash over the full payload of every result, in order."""
    blob = json.dumps(
        [dataclasses.asdict(r) for r in results],
        sort_keys=True, default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class TestWarmPoolUnit:
    def test_cold_get_forks_then_reuses(self):
        pool = WarmPool()
        try:
            executor, reused = pool.get(2)
            assert not reused and pool.generation == 1 and pool.workers == 2
            again, reused = pool.get(2)
            assert reused and again is executor
            assert pool.reuses == 1 and pool.generation == 1
        finally:
            pool.shutdown()

    def test_smaller_request_reuses_larger_pool(self):
        pool = WarmPool()
        try:
            executor, _ = pool.get(2)
            again, reused = pool.get(1)
            assert reused and again is executor
        finally:
            pool.shutdown()

    def test_growth_reforks_without_counting_recycle(self):
        pool = WarmPool()
        try:
            first, _ = pool.get(1)
            bigger, reused = pool.get(2)
            assert not reused and bigger is not first
            assert pool.generation == 2 and pool.recycles == 0
        finally:
            pool.shutdown()

    def test_retire_ends_generation_and_counts(self):
        pool = WarmPool()
        try:
            pool.get(1)
            pool.retire()
            assert not pool.alive and pool.recycles == 1
            pool.get(1)
            assert pool.generation == 2
        finally:
            pool.shutdown()

    def test_retire_and_shutdown_are_idempotent_when_cold(self):
        pool = WarmPool()
        pool.retire()
        pool.shutdown()
        assert pool.recycles == 0 and not pool.alive

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            WarmPool().get(0)

    def test_warm_pool_is_shared_across_runners(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", enabled=False)
        first = CellRunner(jobs=2, cache=cache)
        second = CellRunner(jobs=2, cache=cache)
        first.run_cells([small_cell("stream"), small_cell("mcf")])
        generation = WARM_POOL.generation
        second.run_cells([small_cell("stream", seed=11),
                          small_cell("mcf", seed=11)])
        assert WARM_POOL.generation == generation  # no re-fork
        assert STATS.pool_reuses >= 1


class TestTracePlane:
    def test_workload_for_memoizes(self):
        first = shm.workload_for("stream", length=60, cores=2, seed=7)
        second = shm.workload_for("stream", length=60, cores=2, seed=7)
        assert second is first

    def test_handle_for_publishes_once_then_hits(self):
        handle = shm.PLANE.handle_for("stream", 60, 2, 7)
        again = shm.PLANE.handle_for("stream", 60, 2, 7)
        assert again is handle
        assert shm.PLANE.published == 1 and shm.PLANE.hits == 1

    def test_empty_workload_has_no_segment(self):
        assert shm.PLANE.handle_for("stream", 0, 2, 7) is None
        assert shm.PLANE.handle_for("stream", 60, 0, 7) is None

    def test_attached_workload_is_byte_identical_and_readonly(self):
        handle = shm.PLANE.handle_for("stream", 120, 2, 7)
        shm._WORKLOADS.clear()  # force the worker-side attach path
        shm.ensure_attached(handle)
        attached = shm.workload_for("stream", length=120, cores=2, seed=7)
        fresh = homogeneous_workload("stream", cores=2, length=120, seed=7)
        for got, want in zip(attached.traces, fresh.traces):
            np.testing.assert_array_equal(got.is_write, want.is_write)
            np.testing.assert_array_equal(got.address, want.address)
            np.testing.assert_array_equal(got.gap, want.gap)
            assert not got.is_write.flags.writeable
            assert not got.address.flags.writeable

    def test_close_unlinks_segments(self):
        handle = shm.PLANE.handle_for("stream", 60, 2, 7)
        shm.PLANE.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)

    def test_vanished_segment_falls_back_to_synthesis(self):
        handle = shm.TraceHandle(
            key=shm.trace_key("stream", 60, 2, 7),
            name="reprotp_gone_0", cores=2, length=60,
        )
        shm.ensure_attached(handle)  # must not raise
        workload = shm.workload_for("stream", length=60, cores=2, seed=7)
        fresh = homogeneous_workload("stream", cores=2, length=60, seed=7)
        np.testing.assert_array_equal(
            workload.traces[0].address, fresh.traces[0].address
        )


class TestContractByteIdentical:
    """Satellite: warm pool + shm trace plane vs serial, hash-compared."""

    def test_pool_plane_pipeline_matches_serial(self, tmp_path):
        specs = varied_batch()
        serial = CellRunner(jobs=1, cache=ResultCache(tmp_path / "serial",
                                                      enabled=True))
        want = sweep_hash(serial.run_cells(specs))
        assert shm.PLANE.published == 0  # serial mode never touches shm

        pooled = CellRunner(jobs=2, cache=ResultCache(tmp_path / "pooled",
                                                      enabled=True))
        submitted = pooled.prefetch(specs)
        assert submitted == 6  # 7 specs, one duplicate
        assert STATS.cross_exp_dedup == 1
        got = sweep_hash(pooled.run_cells(specs))
        assert got == want
        assert STATS.inflight_hits == submitted
        assert shm.PLANE.published >= 1  # traces travelled via the plane

        # Third pass: everything recalled from the pooled run's cache.
        cached = CellRunner(jobs=2, cache=ResultCache(tmp_path / "pooled",
                                                      enabled=True))
        hits_before = STATS.cache_hits
        assert sweep_hash(cached.run_cells(specs)) == want
        assert STATS.cache_hits == hits_before + 6

    def test_prefetch_is_noop_serially(self, tmp_path):
        serial = CellRunner(jobs=1, cache=ResultCache(tmp_path / "c",
                                                      enabled=True))
        assert serial.prefetch(varied_batch()) == 0
        assert STATS.prefetched == 0 and not serial._inflight

    def test_prefetch_skips_cached_cells(self, tmp_path):
        cache = ResultCache(tmp_path / "c", enabled=True)
        specs = [small_cell("stream"), small_cell("mcf")]
        CellRunner(jobs=1, cache=cache).run_cells([specs[0]])  # warm one
        pooled = CellRunner(jobs=2, cache=cache)
        try:
            assert pooled.prefetch(specs) == 1  # only the cold cell
        finally:
            pooled.cancel_prefetch()


@pytest.mark.chaos
class TestWarmPoolChaos:
    def crash_in_worker(self, spec):
        if os.getpid() != MAIN_PID:
            raise RuntimeError("injected worker crash")
        return REAL_SIMULATE(spec)

    def test_crash_recycles_generation_then_identical_recovery(
        self, monkeypatch, tmp_path
    ):
        specs = [small_cell("stream"), small_cell("mcf")]
        clean = CellRunner(jobs=1, cache=ResultCache(tmp_path / "clean",
                                                     enabled=True))
        want = sweep_hash(clean.run_cells(specs))

        monkeypatch.setattr(engine, "simulate_cell", self.crash_in_worker)
        runner = CellRunner(jobs=2, retries=1, backoff=0.0,
                            cache=ResultCache(tmp_path / "chaos",
                                              enabled=True))
        generation = WARM_POOL.generation  # monotonic across the process
        results = runner.run_cells(specs)
        assert sweep_hash(results) == want
        # Both the first round and the retry round crashed: each retired
        # its warm-pool generation, then the serial fallback recovered.
        assert STATS.pool_recycles == 2
        assert WARM_POOL.generation == generation + 2 and not WARM_POOL.alive
        assert STATS.worker_crashes == 4
        assert STATS.serial_fallback_cells == 2

    def test_prefetched_crash_rejoins_retry_ladder(
        self, monkeypatch, tmp_path
    ):
        specs = [small_cell("stream"), small_cell("mcf")]
        clean = CellRunner(jobs=1, cache=ResultCache(tmp_path / "clean",
                                                     enabled=True))
        want = sweep_hash(clean.run_cells(specs))

        monkeypatch.setattr(engine, "simulate_cell", self.crash_in_worker)
        runner = CellRunner(jobs=2, retries=1, backoff=0.0,
                            cache=ResultCache(tmp_path / "chaos",
                                              enabled=True))
        assert runner.prefetch(specs) == 2
        results = runner.run_cells(specs)  # collect -> fail -> ladder
        assert sweep_hash(results) == want
        assert STATS.serial_fallback_cells == 2
        assert not runner._inflight

    def test_sigint_leaves_no_shm_segments(self, tmp_path):
        """Interrupt a pooled, pipelined sweep; /dev/shm must end clean."""
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm on this platform")
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
            REPRO_TRACE_LEN="2000",
            REPRO_CORES="8",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner",
             "--jobs", "2", "figure11", "figure4", "figure17"],
            env=env, cwd=REPO_ROOT, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        pattern = f"{shm.SHM_PREFIX}_{proc.pid}_*"
        try:
            deadline = time.monotonic() + 60
            while not list(shm_dir.glob(pattern)):
                if proc.poll() is not None or time.monotonic() > deadline:
                    out = proc.communicate()[0]
                    pytest.fail(f"sweep never published a segment:\n{out}")
                time.sleep(0.05)
            proc.send_signal(signal.SIGINT)
            # A SIGINT that lands mid-fork is swallowed by the
            # interpreter ("Exception ignored in" an at-fork callback) —
            # like a user's first Ctrl-C appearing to do nothing — so
            # keep pressing until the runner's handler gets to run.
            for _ in range(12):
                try:
                    proc.wait(timeout=10)
                    break
                except subprocess.TimeoutExpired:
                    proc.send_signal(signal.SIGINT)
            # The interrupt handler terminates the pool's workers, so
            # stdout reaches EOF promptly; a hang here means orphaned
            # workers survived and kept the pipe open.
            out = proc.communicate(timeout=60)[0]
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == 130, out  # the runner's clean-exit code
        # The runner unlinks eagerly; the multiprocessing resource
        # tracker is the asynchronous backstop — give it a moment.
        deadline = time.monotonic() + 5
        while list(shm_dir.glob(pattern)) and time.monotonic() < deadline:
            time.sleep(0.1)
        leaked = list(shm_dir.glob(pattern))
        assert not leaked, f"leaked shared-memory segments: {leaked}"
