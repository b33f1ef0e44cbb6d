"""CI smoke benchmark for the warm pool and shared-memory trace plane.

Three measurements, written machine-readably to ``BENCH_pool.json``:

* ``cold_batch_s`` — first pooled batch: pays the executor fork and
  publishes each distinct trace on the shared-memory plane.
* ``warm_batch_s`` — a second batch of *different* cold cells over the
  same runner: the executor is reused (no fork) and the traces are
  already published.
* ``serial_batch_s`` — the same second batch simulated serially, as the
  equivalence baseline: pooled payload hashes must match serial ones
  byte-for-byte.

The hard assertions are semantic (pool reused, plane hit, results
identical); the wall-clock ratio is recorded but only loosely bounded —
on a single-core CI runner process parallelism cannot beat serial
compute, and the honest win there is the amortized fork + zero-copy
trace reuse.

Set ``REPRO_BENCH_WRITE_ROOT=1`` to refresh the repo-root
``BENCH_pool.json`` baseline in place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

from conftest import OUT_DIR

from repro.core import schemes
from repro.experiments import common
from repro.perf import engine
from repro.perf.cache import ResultCache
from repro.perf.engine import STATS, CellRunner
from repro.perf.planner import host_fingerprint
from repro.perf.pool import WARM_POOL
from repro.traces import shm

#: Bump when a field is renamed or its meaning changes; additions are free.
#: v2: measuring ``host`` fingerprint.
#: v3: the batched third batch is gone, and with it ``batch_batch_s``,
#: ``batched_cells`` and ``batch_dispatches``.
SCHEMA_VERSION = 3

REPO_ROOT = Path(__file__).resolve().parents[1]

CELL = dict(length=300, cores=2)
SCHEMES = (schemes.baseline(), schemes.din(), schemes.lazyc(),
           schemes.preread())


def batch(bench: str, seed: int):
    """Four schemes over one (bench, seed) workload: one shared trace."""
    return [
        common.cell(bench, scheme, seed=seed, **CELL) for scheme in SCHEMES
    ]


def sweep_hash(results) -> str:
    blob = json.dumps(
        [dataclasses.asdict(r) for r in results],
        sort_keys=True, default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_bench_warm_pool(tmp_path):
    engine.reset()
    # jobs=2 runs every multi-cell cold batch on the pool, whatever the
    # CPU count of the host.
    runner = CellRunner(jobs=2,
                        cache=ResultCache(tmp_path / "pool", enabled=True))

    start = time.perf_counter()
    runner.run_cells(batch("mcf", seed=7))
    cold_s = time.perf_counter() - start
    assert WARM_POOL.alive, "pool should stay warm after a clean batch"
    forks_before = WARM_POOL.generation

    second = batch("mcf", seed=11)
    start = time.perf_counter()
    pooled = runner.run_cells(second)
    warm_s = time.perf_counter() - start
    assert WARM_POOL.generation == forks_before, "warm batch must not re-fork"
    assert STATS.pool_reuses >= 1
    # Four schemes per batch share one trace: published once, hit thrice.
    assert shm.PLANE.published == 2 and shm.PLANE.hits >= 6

    serial = CellRunner(jobs=1, cache=ResultCache(tmp_path / "serial",
                                                  enabled=True))
    start = time.perf_counter()
    baseline = serial.run_cells(second)
    serial_s = time.perf_counter() - start
    assert sweep_hash(pooled) == sweep_hash(baseline), (
        "warm-pool + trace-plane results must be byte-identical to serial"
    )

    results = {
        "schema_version": SCHEMA_VERSION,
        "host": host_fingerprint(),
        "cold_batch_s": round(cold_s, 4),
        "warm_batch_s": round(warm_s, 4),
        "serial_batch_s": round(serial_s, 4),
        "warm_vs_cold_speedup": round(cold_s / max(warm_s, 1e-9), 2),
        "cells_per_batch": len(second),
        "jobs": runner.jobs,
        "pool_reuses": STATS.pool_reuses,
        "pool_recycles": STATS.pool_recycles,
        "pool_generations": WARM_POOL.generation,
        "plane_segments": shm.PLANE.published,
        "plane_reuses": shm.PLANE.hits,
    }
    print("\n" + json.dumps(results, indent=2, sort_keys=True))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(results, indent=2, sort_keys=True) + "\n"
    out_path = OUT_DIR / "BENCH_pool.json"
    out_path.write_text(blob)
    if os.environ.get("REPRO_BENCH_WRITE_ROOT") == "1":
        (REPO_ROOT / "BENCH_pool.json").write_text(blob)

    # Generous sanity bound: reusing the warm pool must never be
    # drastically slower than paying a fresh fork for the same work.
    assert warm_s < max(cold_s * 3.0, 5.0), results
    engine.reset()
