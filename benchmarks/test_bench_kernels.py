"""Kernel-layer benchmark: fast bit kernels, batched trace synthesis, cold cell.

Measurements, written machine-readably to ``BENCH_kernels.json``:

* **Kernel microbenchmarks** — the int-domain/batched kernels (including
  the row-batched mask sampling and DIN row coders) against the retained
  ``_scalar_*`` / per-line references, same machine, same run, so the
  asserted ratios are machine-independent.
* **Trace synthesis** — the vectorized generator against an inline replica
  of the original per-record Python loop (also an equivalence check).
* **Cold cell** — one cold-cache simulation cell under *every* kernel
  backend available on this host (``python``/``numpy``/``compiled``),
  with a hard byte-identity gate across backends.  The best time is the
  headline ``cold_cell_s`` (compared to the pre-PR wall time for the
  ≥3x acceptance number; ``pr4_cold_cell_s`` keeps the warm-pool PR's
  reference so the trend stays visible), and the per-backend table,
  stamped with the measuring host's fingerprint, records what the
  engine's fixed "compiled if it builds, else python" rule gains.

Set ``REPRO_BENCH_BASELINE=/path/to/BENCH_kernels.json`` to additionally
fail on a >20% regression of any speedup ratio against that committed
baseline; set ``REPRO_BENCH_WRITE_ROOT=1`` to refresh the repo-root
baseline files in place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import time
from pathlib import Path

import numpy as np

from repro.config import LINES_PER_PAGE, LINE_BYTES, LINE_WORDS, PAGE_BYTES
from repro.core import schemes
from repro.experiments import common
from repro.pcm import din as D
from repro.pcm import line as L
from repro.perf import engine
from repro.perf.cache import ResultCache
from repro.perf.engine import CellRunner

from repro.traces.profiles import profile
from repro.traces.synthetic import SyntheticTraceGenerator, _zipf_page_sampler

from conftest import OUT_DIR

#: Bump when a field is renamed or its meaning changes; additions are free.
#: v2: per-backend ``backends`` cold-cell table + measuring ``host``
#: fingerprint (the planner's kernel calibration source).
#: v3: per-backend ``cold_cell_fused_s`` / ``fused_speedup`` rows plus
#: top-level ``fused_<backend>_speedup`` ratio gates.
#: v4: the fused write phase is gone, and with it every fused row and
#: ratio; no planner reads this file any more.
#: v5: the cross-cell batch layer is gone, and with it the ``batched_*``
#: and ``percell_cells_s`` fields.
SCHEMA_VERSION = 5

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Cold wall time of the reference cell (mcf, LazyC+PreRead, length=1200,
#: cores=4) measured on the dev machine immediately before this PR's
#: kernel work.  The acceptance criterion is >= MIN_CELL_SPEEDUP against it.
PRE_PR_COLD_CELL_S = 2.209
#: The same cell after the warm-pool PR (PR 4) landed — the previous
#: baseline, recorded so the per-PR trend stays visible in the JSON.
PR4_COLD_CELL_S = 0.65
MIN_CELL_SPEEDUP = 3.0
#: The aspirational cold-cell wall time for the reference cell: 0.20s
#: on the 1-CPU bench host.  A
#: multi-core dev box with the compiled backend gets there; the 1-CPU CI
#: runner honestly does not (ctypes per-call overhead is the floor), so
#: the target is *recorded* (with a ``cold_cell_target_met`` flag)
#: rather than asserted — the enforced gates are the same-run speedup
#: ratios, which transfer across hosts.
COLD_CELL_TARGET_S = 0.20
MIN_POPCOUNT_SPEEDUP = 2.0
MIN_SAMPLE_SPEEDUP = 1.2
MIN_TRACE_SPEEDUP = 3.0

#: Speedup-ratio fields compared against a committed baseline when
#: REPRO_BENCH_BASELINE is set; each may regress at most 20%.  Only
#: same-run scalar-vs-vectorized ratios qualify — they divide two
#: measurements from the same machine and run, so they transfer across
#: hosts.  Absolute wall clocks (and ratios against recorded dev-machine
#: constants, like ``cold_cell_speedup``) do not; the cold cell keeps
#: its own hard MIN_CELL_SPEEDUP assertion instead.
BASELINE_RATIO_FIELDS = (
    "popcount_speedup", "sample_speedup", "trace_speedup",
    "rows_sample_speedup", "din_rows_speedup",
    "kernel_numpy_speedup", "kernel_compiled_speedup",
)
BASELINE_TOLERANCE = 0.8


def _best_of(n, fn):
    """Min-of-n wall time with GC parked — microbenchmark noise floor."""
    import gc

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if was_enabled:
            gc.enable()


def _bench_kernels() -> dict:
    rng = np.random.default_rng(42)
    masks = [L.random_line(rng) & L.random_line(rng) for _ in range(200)]
    ints = [L.to_int(m) for m in masks]
    # Sampling operates on vulnerability masks, which are sparse (a write
    # flips a handful of a neighbour's cells); benchmark that shape.
    sparse = [
        L.mask_from_positions(rng.choice(512, size=12, replace=False))
        for _ in range(200)
    ]
    sparse_ints = [L.to_int(m) for m in sparse]

    scalar_pop = _best_of(5, lambda: [L._scalar_popcount(m) for m in masks])
    fast_pop = _best_of(5, lambda: [L.popcount(v) for v in ints])

    def scalar_sample():
        r = np.random.default_rng(7)
        for m in sparse:
            L._scalar_sample_mask(m, 0.1, r)

    def batched_sample():
        r = np.random.default_rng(7)
        L.sample_masks_int(sparse_ints, 0.1, r)

    scalar_s = _best_of(15, scalar_sample)
    batched_s = _best_of(15, batched_sample)
    return {
        "popcount_scalar_s": scalar_pop,
        "popcount_int_s": fast_pop,
        "popcount_speedup": scalar_pop / max(fast_pop, 1e-12),
        "sample_scalar_s": scalar_s,
        "sample_batched_int_s": batched_s,
        "sample_speedup": scalar_s / max(batched_s, 1e-12),
    }


def _bench_row_kernels() -> dict:
    """Row-batched mask sampling and DIN coding vs their per-line forms."""
    rng = np.random.default_rng(99)
    rows = rng.integers(
        0, 1 << 64, size=(LINES_PER_PAGE, LINE_WORDS), dtype=L.WORD_DTYPE
    )
    row_ints = [L.to_int(row) for row in rows]
    data = rng.integers(0, 256, size=(LINES_PER_PAGE, 64), dtype=np.uint8)
    data_ints = [int.from_bytes(d.tobytes(), "little") for d in data]
    coder = D.DINEncoder()

    def scalar_rows_sample():
        r = np.random.default_rng(5)
        return [L._scalar_sample_mask(row, 0.05, r) for row in rows]

    def batched_rows_sample():
        r = np.random.default_rng(5)
        return L.sample_masks_rows(rows, 0.05, r)

    # Equivalence first (the CI divergence gate for the row kernels).
    assert [L.to_int(m) for m in batched_rows_sample()] == [
        L.to_int(m) for m in scalar_rows_sample()
    ]
    scalar_s = _best_of(15, scalar_rows_sample)
    rows_s = _best_of(15, batched_rows_sample)

    def perline_din():
        return [
            coder.encode_stored_int(row, d)
            for row, d in zip(row_ints, data_ints)
        ]

    def rows_din():
        return coder.encode_stored_rows(rows, data)

    stored_rows, flag_rows = rows_din()
    reference = perline_din()
    assert [L.to_int(s) for s in stored_rows] == [s for s, _ in reference]
    assert [int(f) for f in flag_rows] == [f for _, f in reference]
    perline_s = _best_of(15, perline_din)
    din_rows_s = _best_of(15, rows_din)
    return {
        "rows_sample_scalar_s": scalar_s,
        "rows_sample_batched_s": rows_s,
        "rows_sample_speedup": scalar_s / max(rows_s, 1e-12),
        "din_perline_s": perline_s,
        "din_rows_s": din_rows_s,
        "din_rows_speedup": perline_s / max(din_rows_s, 1e-12),
    }


def _scalar_trace_loop(gen: SyntheticTraceGenerator, length: int) -> list:
    """Replica of the pre-PR per-record generation loop (reference)."""
    import zlib

    bench = gen.profile
    name_tag = zlib.crc32(bench.name.encode()) & 0xFFFF
    rng = np.random.default_rng((gen.seed, gen.core, name_tag))
    cdf, perm = _zipf_page_sampler(bench.working_set_pages, bench.zipf_s, rng)
    is_write = rng.random(length) < bench.write_fraction
    p = min(1.0, 1.0 / max(bench.mean_gap, 1.0))
    gaps = rng.geometric(p, size=length) - 1
    streaming = rng.random(length) < bench.seq_fraction
    fresh_draws = rng.random(length)
    line_cdf, line_perm = _zipf_page_sampler(LINES_PER_PAGE, 0.9, rng)
    line_draws = rng.random(length)

    out = []
    page = int(perm[np.searchsorted(cdf, fresh_draws[0])])
    line = int(line_perm[np.searchsorted(line_cdf, line_draws[0])])
    for i in range(length):
        if i and streaming[i]:
            line += 1
            if line >= LINES_PER_PAGE:
                line = 0
                page = (page + 1) % bench.working_set_pages
        elif i:
            page = int(perm[np.searchsorted(cdf, fresh_draws[i])])
            rank = int(line_perm[np.searchsorted(line_cdf, line_draws[i])])
            line = (rank + page * 7) % LINES_PER_PAGE
        address = (gen.base_page + page) * PAGE_BYTES + line * LINE_BYTES
        out.append((bool(is_write[i]), address, int(gaps[i])))
    return out


def _bench_traces() -> dict:
    gen = SyntheticTraceGenerator(profile("mcf"), seed=1, core=0)
    length = 20_000

    # Equivalence first: the vectorized columns must reproduce the loop.
    trace = gen.generate(length)
    reference = _scalar_trace_loop(gen, length)
    assert trace.is_write.tolist() == [r[0] for r in reference]
    assert trace.address.tolist() == [r[1] for r in reference]
    assert trace.gap.tolist() == [r[2] for r in reference]

    scalar_s = _best_of(3, lambda: _scalar_trace_loop(gen, length))
    vector_s = _best_of(3, lambda: gen.generate(length))
    return {
        "trace_length": length,
        "trace_scalar_s": scalar_s,
        "trace_vectorized_s": vector_s,
        "trace_speedup": scalar_s / max(vector_s, 1e-12),
    }


def _bench_cold_cell(tmp_path) -> dict:
    """The reference cell, cold, under every kernel backend on this host.

    Byte-identity across every backend is a hard gate; the per-backend
    times (best of two) become the ``backends`` table.
    """
    from repro.pcm import kernels

    spec = common.cell(
        "mcf", schemes.by_name("LazyC+PreRead"), length=1200, cores=4
    )
    engine.reset()
    backends: dict = {}
    digests: dict = {}
    for name in kernels.available_backends():
        best = float("inf")
        for attempt in range(2):
            runner = CellRunner(
                jobs=1, kernel_backend=name,
                cache=ResultCache(tmp_path / f"{name}{attempt}", enabled=True),
            )
            t0 = time.perf_counter()
            results = runner.run_cells([spec])
            best = min(best, time.perf_counter() - t0)
        digests[name] = _digest(results)
        entry: dict = {"cold_cell_s": best}
        flavor = getattr(kernels.get_backend(name), "flavor", None)
        if flavor:
            entry["flavor"] = flavor
        backends[name] = entry
    engine.reset()

    # The CI divergence gate: every backend, the same bytes.
    assert digests and all(d == digests["python"] for d in digests.values()), (
        f"kernel backends diverged from the pure-Python reference: {digests}"
    )
    best_backend = min(backends, key=lambda n: backends[n]["cold_cell_s"])
    best = backends[best_backend]["cold_cell_s"]
    python_s = backends["python"]["cold_cell_s"]
    out = {
        "cold_cell_s": best,
        "best_backend": best_backend,
        "backends": backends,
        "kernel_backends_identical": True,
        "cold_cell_target_s": COLD_CELL_TARGET_S,
        "cold_cell_target_met": best <= COLD_CELL_TARGET_S,
        "pre_pr_cold_cell_s": PRE_PR_COLD_CELL_S,
        "pr4_cold_cell_s": PR4_COLD_CELL_S,
        "cold_cell_speedup": PRE_PR_COLD_CELL_S / max(best, 1e-12),
        "cold_cell_speedup_vs_pr4": PR4_COLD_CELL_S / max(best, 1e-12),
    }
    # Same-run cross-backend ratios: these transfer across hosts, so
    # they (not the absolute target) are what the baseline check gates.
    for name in ("numpy", "compiled"):
        if name in backends:
            out[f"kernel_{name}_speedup"] = python_s / max(
                backends[name]["cold_cell_s"], 1e-12
            )
    return out


def _digest(results) -> str:
    blob = pickle.dumps([dataclasses.asdict(r) for r in results])
    return hashlib.sha256(blob).hexdigest()


def _check_against_baseline(results: dict) -> None:
    """Fail on a >20% ratio regression vs a committed baseline (CI gate)."""
    baseline_path = os.environ.get("REPRO_BENCH_BASELINE")
    if not baseline_path:
        return
    baseline = json.loads(Path(baseline_path).read_text())
    for field in BASELINE_RATIO_FIELDS:
        reference = baseline.get(field)
        if not isinstance(reference, (int, float)) or reference <= 0:
            continue
        if field not in results:
            # A per-backend ratio the current host cannot measure (say,
            # no compiled backend here): nothing to gate.
            continue
        floor = reference * BASELINE_TOLERANCE
        assert results[field] >= floor, (
            f"{field} regressed: {results[field]:.2f} < {floor:.2f} "
            f"(committed baseline {reference:.2f}, tolerance "
            f"{BASELINE_TOLERANCE:.0%})"
        )


def _write_results(results: dict, filename: str) -> Path:
    """Write to the out dir; refresh the repo-root baseline when asked."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(results, indent=2, sort_keys=True) + "\n"
    out_path = OUT_DIR / filename
    out_path.write_text(blob)
    if os.environ.get("REPRO_BENCH_WRITE_ROOT") == "1":
        (REPO_ROOT / filename).write_text(blob)
    return out_path


def test_bench_kernels(tmp_path):
    from repro.perf.planner import host_fingerprint

    results = {
        "schema_version": SCHEMA_VERSION,
        "line_words": LINE_WORDS,
        "host": host_fingerprint(),
    }
    results.update(_bench_kernels())
    results.update(_bench_row_kernels())
    results.update(_bench_traces())
    results.update(_bench_cold_cell(tmp_path))

    out_path = _write_results(results, "BENCH_kernels.json")
    print(
        f"\npopcount {results['popcount_speedup']:.1f}x, "
        f"sampling {results['sample_speedup']:.1f}x, "
        f"row sampling {results['rows_sample_speedup']:.1f}x, "
        f"DIN rows {results['din_rows_speedup']:.1f}x, "
        f"trace gen {results['trace_speedup']:.1f}x, "
        f"cold cell {results['cold_cell_s']:.3f}s via "
        f"{results['best_backend']} "
        f"({results['cold_cell_speedup']:.2f}x vs pre-PR, "
        f"{results['cold_cell_speedup_vs_pr4']:.2f}x vs PR 4; "
        + ", ".join(
            f"{name}={entry['cold_cell_s']:.3f}s"
            for name, entry in results["backends"].items()
        )
        + f") -> {out_path}"
    )

    assert results["popcount_speedup"] >= MIN_POPCOUNT_SPEEDUP
    assert results["sample_speedup"] >= MIN_SAMPLE_SPEEDUP
    assert results["trace_speedup"] >= MIN_TRACE_SPEEDUP
    assert results["cold_cell_speedup"] >= MIN_CELL_SPEEDUP, (
        f"cold cell {results['cold_cell_s']:.3f}s is only "
        f"{results['cold_cell_speedup']:.2f}x faster than the pre-PR "
        f"{PRE_PR_COLD_CELL_S}s baseline (need {MIN_CELL_SPEEDUP}x)"
    )
    _check_against_baseline(results)
