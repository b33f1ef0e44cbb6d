"""The serial path, the state plane, and the engine's execution rules.

Covers three pieces of the execution layer:

* :mod:`repro.pcm.stateplane` — deterministic pooled state is identical
  to fresh generation, read-only and capped;
* the ``auto`` kernel rule — compiled when it builds, else pure Python;
* the cold-batch mode rule — a batch runs in-process with one job or
  one cell, and on the warm pool otherwise, whatever the CPU count.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time
from types import SimpleNamespace

import pytest

from repro.core import schemes
from repro.experiments import common
from repro.pcm import kernels
from repro.pcm import line as L
from repro.pcm import stateplane
from repro.perf import engine
from repro.perf.cache import ResultCache
from repro.perf.engine import STATS, CellRunner
from repro.perf.planner import host_fingerprint

SMALL = dict(length=60, cores=2)


def small_cell(bench="stream", scheme=None, **kwargs):
    params = {**SMALL, **kwargs}
    return common.cell(bench, scheme or schemes.baseline(), **params)


def payload(result) -> dict:
    return dataclasses.asdict(result)


class TestStatePlane:
    def test_pooled_values_match_fresh_generation(self):
        plane = stateplane.StatePlane()
        fresh_row = stateplane._generate_row(7, 1, 3)
        pooled = plane.pristine_row(7, 1, 3)
        assert pooled == fresh_row
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
        # One immutable 4 KB image: nothing can write through the pool.
        assert isinstance(pooled, bytes) and len(pooled) == 4096
        with pytest.raises(TypeError):
            pooled[0] = 1

    def test_fifo_eviction_under_cap(self, monkeypatch):
        monkeypatch.setattr(stateplane, "ROW_POOL_CAP", 2)
        plane = stateplane.StatePlane()
        for row in range(3):
            plane.pristine_row(0, 0, row)
        assert plane.evictions == 1
        assert len(plane._rows) == 2
        # The evicted key regenerates identical bytes on re-touch.
        assert plane.pristine_row(0, 0, 0) == stateplane._generate_row(0, 0, 0)
        assert list(plane._rows) == [(0, 0, 2), (0, 0, 0)]
        # The mask pool evicts the same way, oldest key first.
        monkeypatch.setattr(stateplane, "MASK_POOL_CAP", 2)
        for line in range(3):
            plane.weak_mask(0.1, (0, 0, line))
        assert plane.evictions == 3
        assert list(plane._masks) == [(0.1, 0, 0, 1), (0.1, 0, 0, 2)]
        assert plane.weak_mask(0.1, (0, 0, 0)) == (
            stateplane._generate_weak_mask(0.1, (0, 0, 0))
        )
        assert list(plane._masks) == [(0.1, 0, 0, 2), (0.1, 0, 0, 0)]

    def test_array_rows_copy_from_plane(self):
        from repro.pcm.array import PCMArray

        stateplane.PLANE.reset()
        a = PCMArray(banks=2, rows_per_bank=16, seed=11)
        b = PCMArray(banks=2, rows_per_bank=16, seed=11)
        addr = (1, 4, 2)
        assert a.line(addr).stored == b.line(addr).stored
        assert stateplane.PLANE.row_hits == 1
        pristine = stateplane.PLANE.pristine_row(11, 1, 4)[2 * 64:3 * 64]
        # Rewriting one array's line must not leak into the other array
        # or the pool.
        a.line(addr).stored ^= 1
        assert a.line(addr).stored != b.line(addr).stored
        assert b.line(addr).stored == int.from_bytes(pristine, "little")
        assert stateplane.PLANE.pristine_row(11, 1, 4) == (
            stateplane._generate_row(11, 1, 4)
        )


class TestKernelPlanner:
    """Host fingerprints, and the ``auto`` kernel rule: compiled when it
    builds on this host, pure Python otherwise — never a timing model."""

    def test_fingerprint_fields(self):
        assert set(host_fingerprint()) == {"cpu_count", "machine", "python"}

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

    def test_auto_counts_kernel_picks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        runner = CellRunner(
            jobs=1, kernel_backend="auto",
            cache=ResultCache(tmp_path / "k", enabled=True),
        )
        runner.run_cells([small_cell("stream")])
        assert STATS.kernel_python_picks + STATS.kernel_compiled_picks == 1
        assert "kernels:" in STATS.summary()


class TestModeRule:
    """One rule per cold batch: serial with one job or one cell, else the
    warm pool — the CPU count never overrides an explicit ``jobs``."""

    def test_multi_cell_batches_run_on_the_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        runner = CellRunner(
            jobs=2, cache=ResultCache(tmp_path / "pool", enabled=True)
        )
        runner.run_cells([small_cell("stream", seed=s) for s in range(16)])
        assert STATS.batch_dispatches == 0
        assert STATS.planner_batch_picks == 0
        assert STATS.planner_pool_picks == 1
        assert STATS.planner_serial_picks == 0

        # More jobs than CPUs is still what the caller asked for.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        specs = [small_cell(bench) for bench in ("mcf", "lbm", "bwaves")]
        pooled = runner.run_cells(specs)
        assert STATS.simulated == 19  # all three cells were cold
        assert STATS.planner_pool_picks == 2
        assert STATS.planner_serial_picks == 0
        assert "modes: 0 serial / 2 pool batches" in STATS.summary()
        serial = CellRunner(
            jobs=1, cache=ResultCache(tmp_path / "serial", enabled=True)
        ).run_cells(specs)
        assert [payload(p) for p in pooled] == [payload(s) for s in serial]

    def test_one_job_or_one_cell_runs_in_process(self, tmp_path):
        specs = [small_cell("stream"), small_cell("mcf")]
        CellRunner(
            jobs=1, cache=ResultCache(tmp_path / "one-job", enabled=True)
        ).run_cells(specs)
        CellRunner(
            jobs=2, cache=ResultCache(tmp_path / "one-cell", enabled=True)
        ).run_cells(specs[:1])
        assert STATS.planner_serial_picks == 2
        assert STATS.planner_pool_picks == 0
        assert not engine.WARM_POOL.alive


