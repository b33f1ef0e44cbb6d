"""Cross-cell batch execution: advance many cells per dispatch.

PR 4 made pooled dispatch cheap (warm pool + shared-memory traces), but
every future still carried exactly one cell, so a batch of N cells paid
N submissions, N result pickles, and N profiler snapshots.  This module
packs compatible :class:`~repro.perf.cellspec.CellSpec`\\ s into
*chunks* that a single worker advances end to end:

* :func:`plan_batches` groups batchable specs by their workload trace
  key — a chunk's cells replay the same shared-memory trace segment, so
  the worker attaches once per segment (:func:`repro.traces.shm.
  ensure_attached_all`) — and splits each group into
  ``REPRO_BATCH_CELLS``-sized chunks;
* :func:`simulate_chunk` is the pool-worker entry point: one future per
  chunk, returning the chunk's results (and one merged phase snapshot)
  in a single payload;
* :func:`simulate_batch` is the in-process form the engine's serial
  batch path and the equivalence tests use.

**Byte-identity** is by construction: every cell is still advanced by
:func:`~repro.perf.cellspec.simulate_cell` — an independent simulation
seeded entirely from its own spec — so chunking changes *where* cells
run and what state generation they share (the deterministic
:mod:`~repro.pcm.stateplane` pools and the trace memo), never a single
RNG draw.  Cells in one chunk share the worker's state plane, which is
where the batch win comes from: chunk cells touching the same rows and
lines skip regeneration entirely.

**Fallback**: specs with an *active fault plan* are not batched
(:func:`batchable`) — they run through the per-cell ladder, so PR 3's
crash ladder, fault injection, and per-cell timeout accounting keep
their exact semantics.  A chunk that fails in the pool (crash, timeout)
rejoins the per-cell retry ladder cell by cell; batching never weakens
the crash-proofing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.results import SimulationResult
from ..resilience import watchdog
from ..traces import shm
from .cellspec import CellSpec, simulate_cell
from .profiler import PROFILER, Snapshot


def batchable(spec: CellSpec) -> bool:
    """Whether a spec may join a multi-cell chunk.

    Fault-injected cells stay on the per-cell path: the chaos tests
    reason about per-cell crash/timeout/retry counts, and a faulted
    cell's failure must never take chunk-mates down with it.
    """
    return not spec.config.faults.active


def plan_batches(
    specs: Sequence[CellSpec], batch_cells: int
) -> Tuple[List[List[int]], List[int]]:
    """Plan one batch of specs into chunks plus per-cell leftovers.

    Returns ``(chunks, singles)`` over *indices* into ``specs``:
    ``chunks`` holds lists of batchable indices grouped by trace key
    (cells of one chunk replay the same workload) and capped at
    ``batch_cells`` per chunk; ``singles`` holds the non-batchable
    indices, for the caller's per-cell ladder.
    """
    if batch_cells < 1:
        raise ValueError(f"batch_cells must be >= 1, got {batch_cells}")
    groups: Dict[tuple, List[int]] = {}
    singles: List[int] = []
    for index, spec in enumerate(specs):
        if not batchable(spec):
            singles.append(index)
            continue
        key = shm.trace_key(
            spec.bench, spec.length, spec.config.cores, spec.config.seed
        )
        groups.setdefault(key, []).append(index)
    chunks: List[List[int]] = []
    for indices in groups.values():
        for start in range(0, len(indices), batch_cells):
            chunks.append(indices[start:start + batch_cells])
    return chunks, singles


def simulate_chunk(
    specs: List[CellSpec], handles: Optional[list] = None,
    kernel: Optional[str] = None, hb: Optional[str] = None,
) -> Tuple[List[SimulationResult], Snapshot]:
    """Pool-worker entry: advance one whole chunk in a single dispatch.

    Attaches every shared-memory trace segment the chunk references
    (once per segment per worker process), then advances each cell;
    the chunk's phase timings come back as one merged snapshot.  Workers
    are reused across chunks, so the per-process profiler is reset first
    — exactly the contract of the per-cell ``_simulate_with_phases``.

    ``kernel`` carries the parent's bit-kernel backend pick into the
    worker process explicitly (warm workers outlive batches, so the
    choice cannot ride on inherited module state); a backend the worker
    cannot construct degrades to pure Python, which is byte-identical.
    ``hb`` names the parent's heartbeat segment (see
    :mod:`repro.resilience.watchdog`); the worker stamps it per cell so
    a long chunk still beats between cells.
    """
    if hb is not None:
        watchdog.arm(hb)
    if handles:
        shm.ensure_attached_all(handles)
    if kernel is not None:
        from ..pcm import kernels

        kernels.activate_preferred(kernel)
    PROFILER.reset()
    results = []
    for spec in specs:
        results.append(simulate_cell(spec))
        watchdog.pulse()
    return results, PROFILER.snapshot()


def simulate_batch(
    specs: Sequence[CellSpec],
    on_result: Optional[Callable[[int, SimulationResult], None]] = None,
    batch_cells: Optional[int] = None,
) -> List[SimulationResult]:
    """In-process batched execution over a mixed batch of specs.

    Results come back in submission order and are byte-identical to
    calling :func:`simulate_cell` per spec: cells are advanced chunk by
    chunk (grouped so consecutive cells share trace and state-plane
    keys), with non-batchable specs falling back to the per-cell path.
    ``on_result`` is invoked with ``(index, result)`` as each cell
    finishes, matching the engine's streaming-cache contract.
    """
    from .. import envconfig

    notify = on_result or (lambda index, result: None)
    cells = batch_cells if batch_cells is not None else envconfig.batch_cells()
    results: List[Optional[SimulationResult]] = [None] * len(specs)
    chunks, singles = plan_batches(specs, cells)
    for chunk in chunks:
        for index in chunk:
            result = simulate_cell(specs[index])
            results[index] = result
            notify(index, result)
    for index in singles:
        result = simulate_cell(specs[index])
        results[index] = result
        notify(index, result)
    return results  # type: ignore[return-value]  # every slot is filled
