"""The cross-cell batch layer, the state plane, and the adaptive planner.

Covers the three new execution-layer pieces:

* :mod:`repro.pcm.stateplane` — deterministic pooled state is identical
  to fresh generation, read-only, capped, and cleanly disableable;
* :mod:`repro.perf.planner` — calibration seeding, EWMA updates, and
  the serial/pool/batch decision rule (including the 1-CPU case where
  pooling must lose);
* the engine's batched pool path — byte-identity against the serial
  reference, the new counters, and the crash fallback that returns a
  failed chunk's cells to the per-cell retry ladder.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import schemes
from repro.experiments import common
from repro.pcm import kernels
from repro.pcm import line as L
from repro.pcm import stateplane
from repro.perf import batch as batchexec
from repro.perf import engine
from repro.perf.cache import ResultCache
from repro.perf.engine import STATS, CellRunner
from repro.perf.planner import (
    DEFAULT_COSTS,
    EWMA_ALPHA,
    AdaptivePlanner,
    fingerprint_matches,
    host_fingerprint,
)

SMALL = dict(length=60, cores=2)
MAIN_PID = os.getpid()
REAL_SIMULATE = batchexec.simulate_cell


def small_cell(bench="stream", scheme=None, **kwargs):
    params = {**SMALL, **kwargs}
    return common.cell(bench, scheme or schemes.baseline(), **params)


def payload(result) -> dict:
    return dataclasses.asdict(result)


def crash_chunks_in_worker(spec):
    """Fail batched dispatches only: the per-cell ladder stays healthy."""
    if os.getpid() != MAIN_PID:
        raise RuntimeError("injected chunk crash")
    return REAL_SIMULATE(spec)


class TestStatePlane:
    def test_pooled_values_match_fresh_generation(self):
        plane = stateplane.StatePlane()
        fresh_row = stateplane._generate_row(7, 1, 3)
        pooled = plane.pristine_row(7, 1, 3)
        assert np.array_equal(pooled, fresh_row)
        assert plane.row_misses == 1
        again = plane.pristine_row(7, 1, 3)
        assert again is pooled and plane.row_hits == 1

        key = (0, 5, 9)
        fresh_mask = stateplane._generate_weak_mask(0.1, key)
        assert plane.weak_mask(0.1, key) == fresh_mask
        assert plane.weak_mask(0.1, key) == fresh_mask
        assert plane.mask_hits == 1 and plane.mask_misses == 1
        # Saturated fraction short-circuits to the all-ones mask.
        assert plane.weak_mask(1.0, key) == L.MASK_ALL

    def test_pooled_rows_are_read_only(self):
        plane = stateplane.StatePlane()
        pooled = plane.pristine_row(1, 0, 0)
        with pytest.raises(ValueError):
            pooled[0, 0] = 1
        # Consumers copy; the copy is writable and equal.
        copy = pooled.copy()
        copy[0, 0] = 1

    def test_fifo_eviction_under_cap(self, monkeypatch):
        monkeypatch.setattr(stateplane, "ROW_POOL_CAP", 2)
        plane = stateplane.StatePlane()
        for row in range(3):
            plane.pristine_row(0, 0, row)
        assert plane.evictions == 1
        assert len(plane._rows) == 2
        # The evicted key regenerates identical bytes on re-touch.
        assert np.array_equal(
            plane.pristine_row(0, 0, 0), stateplane._generate_row(0, 0, 0)
        )

    def test_disabled_plane_generates_without_caching(self, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_PLANE", "0")
        plane = stateplane.StatePlane()
        first = plane.pristine_row(0, 0, 0)
        second = plane.pristine_row(0, 0, 0)
        assert first is not second and np.array_equal(first, second)
        assert plane.entries == 0 and plane.row_misses == 2
        first[0, 0] = 1  # uncached arrays stay writable

    def test_array_rows_copy_from_plane(self):
        from repro.pcm.array import PCMArray

        stateplane.PLANE.reset()
        a = PCMArray(banks=2, rows_per_bank=16, seed=11)
        b = PCMArray(banks=2, rows_per_bank=16, seed=11)
        row_a = a.row_state(1, 4)
        row_b = b.row_state(1, 4)
        assert np.array_equal(row_a.stored, row_b.stored)
        assert stateplane.PLANE.row_hits == 1
        # Mutating one array's row must not leak into the other (or the pool).
        row_a.stored[0, 0] ^= np.uint64(1)
        assert not np.array_equal(row_a.stored, row_b.stored)
        assert np.array_equal(
            b.row_state(1, 4).stored, stateplane.PLANE.pristine_row(11, 1, 4)
        )


class TestPlanner:
    def _planner(self) -> AdaptivePlanner:
        planner = AdaptivePlanner()
        planner._seeded = True  # isolate from any committed calibration
        return planner

    def test_serial_on_one_effective_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        planner = self._planner()
        # Asking for 8 workers on 1 CPU must still pick serial.
        assert planner.decide(6, jobs=8, batch_cells=8) == "serial"

    def test_single_cell_is_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        planner = self._planner()
        assert planner.decide(1, jobs=8, batch_cells=8) == "serial"

    def test_batch_needs_enough_chunks(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        planner = self._planner()
        # 32 cells / 4 per chunk = 8 chunks >= 8 workers: batch is
        # eligible and (default costs) cheapest.
        assert planner.decide(32, jobs=8, batch_cells=4) == "batch"
        # 4 cells in one chunk would serialize on a single worker.
        assert planner.decide(4, jobs=8, batch_cells=8) == "pool"

    def test_observations_flip_the_decision(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        planner = self._planner()
        # Drive pooled costs way up: serial becomes the cheapest total.
        for _ in range(12):
            planner.observe("pool_cold", cells=2, seconds=8.0)
            planner.observe("batch", cells=2, seconds=8.0)
        assert planner.decide(4, jobs=4, batch_cells=2) == "serial"

    def test_observe_is_an_ewma(self):
        planner = self._planner()
        before = planner.cost("serial")
        planner.observe("serial", cells=2, seconds=2.0)  # 1.0 s/cell
        expected = EWMA_ALPHA * 1.0 + (1 - EWMA_ALPHA) * before
        assert planner.cost("serial") == pytest.approx(expected)
        planner.observe("serial", cells=0, seconds=1.0)  # ignored
        assert planner.cost("serial") == pytest.approx(expected)

    def test_seed_from_file(self, tmp_path):
        path = tmp_path / "BENCH_pool.json"
        path.write_text(json.dumps({
            "cells_per_batch": 4,
            "serial_batch_s": 2.0,
            "cold_batch_s": 3.0,
            "warm_batch_s": 1.0,
            "batch_batch_s": 0.8,
        }))
        planner = self._planner()
        assert planner.seed_from_file(path) is True
        assert planner.cost("serial") == pytest.approx(0.5)
        assert planner.cost("pool_cold") == pytest.approx(0.75)
        assert planner.cost("pool_warm") == pytest.approx(0.25)
        assert planner.cost("batch") == pytest.approx(0.2)

    def test_seed_ignores_malformed_files(self, tmp_path):
        planner = self._planner()
        assert planner.seed_from_file(tmp_path / "missing.json") is False
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert planner.seed_from_file(bad) is False
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"cells_per_batch": 0}))
        assert planner.seed_from_file(empty) is False
        assert planner.snapshot() == DEFAULT_COSTS

    def test_reset_restores_defaults(self):
        planner = self._planner()
        planner.observe("serial", cells=1, seconds=9.0)
        planner.reset()
        planner._seeded = True
        assert planner.snapshot() == DEFAULT_COSTS

    def test_seed_ignores_foreign_host(self, tmp_path):
        """Calibration from a materially different machine is skipped."""
        path = tmp_path / "BENCH_pool.json"
        path.write_text(json.dumps({
            "host": {"cpu_count": 4096, "machine": "vax"},
            "cells_per_batch": 4,
            "serial_batch_s": 2.0,
        }))
        planner = self._planner()
        assert planner.seed_from_file(path) is False
        assert planner.snapshot() == DEFAULT_COSTS
        # The same payload stamped with this host's fingerprint loads.
        path.write_text(json.dumps({
            "host": host_fingerprint(),
            "cells_per_batch": 4,
            "serial_batch_s": 2.0,
        }))
        assert planner.seed_from_file(path) is True
        assert planner.cost("serial") == pytest.approx(0.5)


class TestKernelPlanner:
    """Host fingerprints, and the ``auto`` kernel rule: compiled when it
    builds on this host, pure Python otherwise — never a timing model."""

    def test_fingerprint_matching_rules(self):
        current = host_fingerprint()
        assert set(current) == {"cpu_count", "machine", "python"}
        assert fingerprint_matches(current) is True
        assert fingerprint_matches(None) is True  # pre-v2 baselines
        assert fingerprint_matches("x86_64") is False  # malformed
        foreign = dict(current, cpu_count=current["cpu_count"] + 64)
        assert fingerprint_matches(foreign) is False
        # The Python version is recorded but not gated on.
        relaxed = dict(current, python="2.7")
        assert fingerprint_matches(relaxed) is True

    @staticmethod
    def _cold_batches(tmp_path, monkeypatch, count: int = 4) -> None:
        """Serial cold ``run_cells`` batches under ``auto``, each made to
        look far slower than any default cost (a 7 s tick per clock
        read), so a timing-driven pick would have to move."""
        ticks = itertools.count(step=7.0)
        monkeypatch.setattr(engine, "time", SimpleNamespace(
            monotonic=lambda: next(ticks), sleep=time.sleep,
        ))
        runner = CellRunner(
            jobs=1, kernel_backend="auto",
            cache=ResultCache(tmp_path / "k", enabled=True),
        )
        for seed in range(count):
            runner.run_cells([small_cell("stream", seed=seed)])

    def test_auto_picks_compiled_whatever_the_timings(
        self, tmp_path, monkeypatch
    ):
        try:
            kernels.get_backend("compiled")
        except kernels.BackendUnavailable as exc:
            pytest.skip(f"compiled backend unavailable here: {exc}")
        self._cold_batches(tmp_path, monkeypatch)
        assert STATS.kernel_compiled_picks == 4
        assert STATS.kernel_python_picks == 0
        assert STATS.kernel_numpy_picks == 0
        assert kernels.active_name() == "compiled"

    def test_auto_picks_python_without_a_compiler(
        self, tmp_path, monkeypatch, no_compiler
    ):
        self._cold_batches(tmp_path, monkeypatch)
        assert STATS.kernel_python_picks == 4
        assert STATS.kernel_compiled_picks == 0
        assert STATS.kernel_numpy_picks == 0
        assert kernels.active_name() == "python"


class TestBatchedEngine:
    def test_batched_results_match_serial_and_count(self, tmp_path):
        specs = [
            small_cell("stream"), small_cell("mcf"),
            small_cell("stream", schemes.by_name("LazyC")),
            small_cell("mcf", schemes.by_name("LazyC")),
        ]
        serial = CellRunner(
            jobs=1, cache=ResultCache(tmp_path / "serial", enabled=True)
        ).run_cells(specs)
        batched = CellRunner(
            jobs=2, plan="batch", batch_cells=2,
            cache=ResultCache(tmp_path / "batch", enabled=True),
        ).run_cells(specs)
        assert [payload(s) for s in serial] == [payload(b) for b in batched]
        assert STATS.batched_cells == 4
        assert STATS.batch_dispatches == 2  # two trace-key groups
        assert "batch: 4 cells in 2 dispatches" in STATS.summary()

    def test_batched_results_land_in_the_cache(self, tmp_path):
        specs = [small_cell("stream"), small_cell("mcf")]
        cache = ResultCache(tmp_path / "c", enabled=True)
        CellRunner(jobs=2, plan="batch", cache=cache).run_cells(specs)
        before = STATS.simulated
        CellRunner(jobs=2, plan="batch", cache=cache).run_cells(specs)
        assert STATS.simulated == before
        assert STATS.cache_hits == 2

    def test_chunk_crash_rejoins_per_cell_ladder(self, tmp_path, monkeypatch):
        specs = [small_cell("stream"), small_cell("mcf")]
        want = [
            payload(r)
            for r in CellRunner(
                jobs=1, cache=ResultCache(tmp_path / "clean", enabled=True)
            ).run_cells(specs)
        ]
        # Only the batched entry point crashes; the per-cell ladder the
        # cells rejoin (engine._simulate_with_phases) is untouched.
        monkeypatch.setattr(
            batchexec, "simulate_cell", crash_chunks_in_worker
        )
        runner = CellRunner(
            jobs=2, plan="batch", batch_cells=2, retries=1, backoff=0.0,
            cache=ResultCache(tmp_path / "chaos", enabled=True),
        )
        results = runner.run_cells(specs)
        assert [payload(r) for r in results] == want
        assert STATS.batch_dispatches >= 1
        assert STATS.batched_cells == 0  # no chunk completed
        assert STATS.worker_retries >= 2  # both cells rejoined the ladder
        assert STATS.pool_recycles >= 1

    def test_forced_batch_degrades_serially_with_one_job(self, tmp_path):
        specs = [small_cell("stream"), small_cell("mcf")]
        runner = CellRunner(
            jobs=1, plan="batch",
            cache=ResultCache(tmp_path / "one", enabled=True),
        )
        results = runner.run_cells(specs)
        assert len(results) == 2
        assert STATS.batch_dispatches == 0  # nothing to overlap: in-process

    def test_auto_counts_planner_picks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        specs = [small_cell("stream"), small_cell("mcf")]
        runner = CellRunner(
            jobs=2, plan="auto",
            cache=ResultCache(tmp_path / "auto", enabled=True),
        )
        runner.run_cells(specs)
        # 1 effective CPU: the planner must refuse to pool.
        assert STATS.planner_serial_picks == 1
        assert STATS.planner_pool_picks == 0
        assert STATS.planner_batch_picks == 0
        assert "planner: 1 serial / 0 pool / 0 batch picks" in STATS.summary()

    def test_auto_counts_kernel_picks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        runner = CellRunner(
            jobs=1, kernel_backend="auto",
            cache=ResultCache(tmp_path / "k", enabled=True),
        )
        runner.run_cells([small_cell("stream")])
        assert STATS.kernel_python_picks + STATS.kernel_compiled_picks == 1
        assert "kernels:" in STATS.summary()

    def test_invalid_plan_and_batch_cells_rejected(self):
        with pytest.raises(ValueError, match="plan must be one of"):
            CellRunner(jobs=1, plan="fastest")
        with pytest.raises(ValueError, match="batch_cells must be >= 1"):
            CellRunner(jobs=1, batch_cells=0)

    def test_plan_batches_groups_by_trace_key(self):
        specs = [
            small_cell("stream"), small_cell("mcf"),
            small_cell("stream", schemes.by_name("LazyC")),
            small_cell("stream", length=40),
        ]
        chunks, singles = batchexec.plan_batches(specs, batch_cells=8)
        assert singles == []
        by_key = sorted(sorted(chunk) for chunk in chunks)
        # stream@60 cells batch together; mcf and stream@40 stand alone.
        assert by_key == [[0, 2], [1], [3]]
        with pytest.raises(ValueError, match="batch_cells must be >= 1"):
            batchexec.plan_batches(specs, batch_cells=0)
