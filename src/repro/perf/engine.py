"""The cell execution engine: dedup, cache, and fan out over processes.

:meth:`CellRunner.run_cells` is the single entry point the experiment
modules use.  It guarantees:

* **Deterministic ordering** — results come back in submission order, so
  tables built from a batch are byte-identical whether the cells were
  simulated serially, in a process pool, or loaded from a warm cache.
* **Deduplication** — identical specs inside one batch (figures reuse
  baseline cells heavily) are simulated once.
* **Caching** — finished cells are persisted via
  :class:`~repro.perf.cache.ResultCache` (writes overlap simulation on a
  background writer thread) and reused across runs.

Worker count comes from, in priority order: an explicit ``jobs=``
argument (the runner's ``--jobs`` flag), the ``REPRO_JOBS`` environment
variable, then ``os.cpu_count()``.

Pooled execution draws from the process-wide
:data:`~repro.perf.pool.WARM_POOL`: one executor is forked once and
reused across batches and experiments, and each distinct workload trace
is synthesized once in the parent and shared with workers zero-copy via
the :mod:`repro.traces.shm` trace plane.

A cold batch runs in-process (:func:`repro.perf.batch.simulate_batch`)
when ``jobs`` is 1 or when it holds one cell.  Otherwise every cell
becomes one future in the runner's in-flight table, the only way a
cell reaches the pool: :meth:`CellRunner.prefetch` puts a sweep's
globally deduplicated cold cells there ahead of their experiments (so
experiment N+1's cells simulate while experiment N's table renders), and
``run_cells`` puts its own cold cells there, then collects them together
with any of its cells already in flight.  Both modes are byte-identical:
every cell is an independent simulation seeded from its own spec.

Pooled execution is crash-proof: a worker that raises, dies (broken
pool), or exceeds the per-cell wall-clock budget (``REPRO_CELL_TIMEOUT``
seconds) only fails *its* cells.  Any failure retires the warm pool's
generation — the next round lazily forks a fresh one — and the failed
cells are retried with capped exponential backoff (``retries=`` rounds,
default :data:`RETRIES`).  Cells still failing after every round degrade
gracefully to in-process serial execution — a deterministic worker-side
bug then surfaces as the original exception, while transient crashes
cost only the retries.  Every rung of the ladder is counted in
:class:`EngineStats`.

Timeouts are deadline-based: the budget window extends every time *any*
cell completes, so a cell is only declared timed out after the pool has
made no progress for a full ``REPRO_CELL_TIMEOUT`` — its own wall clock
is then at least the budget, and one hung batch costs one budget, not
one budget per cell.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import envconfig
from ..core.results import SimulationResult
from ..errors import CellTimeoutError, WorkerCrashError
from ..pcm import kernels
from ..pcm import stateplane
from ..traces import shm
from . import batch as batchexec
from .cache import (
    ResultCache,
    corrupt_evictions,
    reset_corrupt_evictions,
    reset_write_drops,
    write_drops,
)
from .cellspec import CellSpec, cache_key, simulate_cell
from .pool import WARM_POOL, defer_sigint
from .profiler import PROFILER, Snapshot

_LOG = logging.getLogger("repro.perf")

#: Default retry rounds for failed pool cells (``CellRunner(retries=)``).
RETRIES = 2

#: Default base retry backoff, seconds (``CellRunner(backoff=)``).  Round
#: ``k`` sleeps ``min(BACKOFF_CAP, backoff * 2**(k-1))`` before
#: resubmitting; 0 disables sleeping (used by the chaos tests).
BACKOFF_S = 0.5

#: Upper bound on one backoff sleep, seconds.
BACKOFF_CAP = 2.0


@dataclass
class EngineStats:
    """Session-wide counters, shared by every runner instance."""

    cache_hits: int = 0
    simulated: int = 0
    deduplicated: int = 0
    #: Cells whose pool execution raised or whose worker died.
    worker_crashes: int = 0
    #: Cells that exceeded the per-cell wall-clock budget.
    cell_timeouts: int = 0
    #: Cells resubmitted to a fresh pool (one count per cell per round).
    worker_retries: int = 0
    #: Cells that exhausted every pool round and ran serially in-process.
    serial_fallback_cells: int = 0
    #: Batches served by an already-warm pool generation (no fork).
    pool_reuses: int = 0
    #: Pool generations retired by a failure and re-forked lazily.
    pool_recycles: int = 0
    #: Cells submitted ahead of their batch by ``CellRunner.prefetch``.
    prefetched: int = 0
    #: Cells a batch found already in flight (prefetched) when it asked.
    inflight_hits: int = 0
    #: Duplicate specs dropped by cross-experiment (global) dedup.
    cross_exp_dedup: int = 0
    #: Execution mode of every cold batch (see ``CellRunner._runs_serial``).
    planner_serial_picks: int = 0
    planner_pool_picks: int = 0
    #: Always 0: batched chunk dispatch is gone, but ``perfbench/`` still
    #: reads both counters by name.
    planner_batch_picks: int = 0
    batch_dispatches: int = 0
    #: Kernel-backend decisions, by chosen backend (``auto`` backend only).
    kernel_python_picks: int = 0
    kernel_compiled_picks: int = 0
    #: Always 0: ``auto`` never picks numpy and the fused write phase is
    #: gone, but ``perfbench/`` still reads both counters by name.
    kernel_numpy_picks: int = 0
    kernel_fused_picks: int = 0

    def reset(self) -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)

    def cache_hit_rate(self) -> Optional[float]:
        """Cache hits as a fraction of resolved cells (None before any)."""
        resolved = self.cache_hits + self.simulated
        if not resolved:
            return None
        return self.cache_hits / resolved

    def summary(self) -> str:
        base = (
            f"{self.simulated} simulated, {self.cache_hits} cache hits, "
            f"{self.deduplicated} deduplicated"
        )
        rate = self.cache_hit_rate()
        if rate is not None:
            base += f" (hit-rate {100.0 * rate:.0f}%)"
        if (
            self.worker_crashes
            or self.cell_timeouts
            or self.worker_retries
            or self.serial_fallback_cells
        ):
            base += (
                f"; resilience: {self.worker_crashes} worker crashes, "
                f"{self.cell_timeouts} timeouts, "
                f"{self.worker_retries} retried, "
                f"{self.serial_fallback_cells} serial fallbacks"
            )
        if self.pool_reuses or self.pool_recycles:
            base += (
                f"; pool: {self.pool_reuses} reuses, "
                f"{self.pool_recycles} recycles"
            )
        drops, evictions = write_drops(), corrupt_evictions()
        if drops or evictions:
            base += (
                f"; cache: {drops} write drops, {evictions} corrupt evictions"
            )
        trace = shm.PLANE
        if trace.published or trace.hits or trace.suppressed:
            base += (
                f"; trace plane: {trace.published} segments, "
                f"{trace.hits} reuses"
            )
            if trace.suppressed:
                base += f", {trace.suppressed} suppressed"
        if self.prefetched or self.cross_exp_dedup:
            base += (
                f"; pipeline: {self.prefetched} prefetched, "
                f"{self.inflight_hits} collected, "
                f"{self.cross_exp_dedup} cross-experiment dedups"
            )
        if self.planner_serial_picks or self.planner_pool_picks:
            base += (
                f"; modes: {self.planner_serial_picks} serial / "
                f"{self.planner_pool_picks} pool batches"
            )
        if self.kernel_python_picks or self.kernel_compiled_picks:
            base += (
                f"; kernels: {self.kernel_python_picks} python / "
                f"{self.kernel_compiled_picks} compiled picks"
            )
        plane = stateplane.PLANE
        if plane.rows_opened:
            base += f"; state plane: {plane.summary()}"
        phases = PROFILER.summary()
        return f"{base}; phases: {phases}" if phases else base


#: Counters accumulated across every ``run_cells`` call in this process.
STATS = EngineStats()


class CellRunner:
    """Executes batches of cell specs with caching and parallelism."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 retries: int = RETRIES,
                 cell_timeout: Optional[float] = None,
                 backoff: float = BACKOFF_S,
                 kernel_backend: Optional[str] = None):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else envconfig.jobs()
        self.cache = cache if cache is not None else ResultCache()
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.cell_timeout = (
            cell_timeout if cell_timeout is not None else envconfig.cell_timeout()
        )
        self.backoff = backoff
        self.kernel_backend = (
            kernel_backend if kernel_backend is not None
            else envconfig.kernel_backend()
        )
        if self.kernel_backend not in envconfig.KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of "
                f"{'/'.join(envconfig.KERNEL_BACKENDS)}, "
                f"got {self.kernel_backend!r}"
            )
        #: Pool futures not yet collected, by cache key: cells prefetched
        #: ahead of their experiment and a batch's own cold cells.
        self._inflight: Dict[str, Future] = {}

    # -- the batched entry point ------------------------------------------

    def run_cells(self, specs: Sequence[CellSpec]) -> List[SimulationResult]:
        """Simulate (or recall) every cell, in submission order."""
        keys = [cache_key(spec) for spec in specs]
        unique: Dict[str, CellSpec] = {}
        for key, spec in zip(keys, specs):
            if key in unique:
                STATS.deduplicated += 1
            else:
                unique[key] = spec

        results: Dict[str, SimulationResult] = {}
        cold: List[str] = []
        pooled: List[str] = []
        for key, spec in unique.items():
            if key in self._inflight:
                pooled.append(key)
                continue
            cached = self.cache.load(key)
            if cached is not None:
                results[key] = cached
                STATS.cache_hits += 1
            else:
                cold.append(key)
        STATS.inflight_hits += len(pooled)

        kernel: Optional[str] = None
        if cold:
            # One kernel backend per cold batch: activated here for the
            # in-process path and shipped by name to every pool worker.
            kernel = self._resolve_kernel()
            kernels.activate(kernel)
            if self._runs_serial(len(cold)):
                STATS.planner_serial_picks += 1
                # simulate_cell feeds PROFILER directly in-process.
                batchexec.simulate_batch(
                    [unique[key] for key in cold],
                    lambda index, result: self._store(
                        cold[index], result, results
                    ),
                )
            else:
                STATS.planner_pool_picks += 1
                self._submit({key: unique[key] for key in cold}, kernel)
                pooled.extend(cold)
        if pooled:
            self._settle(pooled, unique, results, kernel)
        self.cache.flush()

        return [results[key] for key in keys]

    # -- cross-experiment pipelining --------------------------------------

    def prefetch(self, specs: Sequence[CellSpec]) -> int:
        """Submit cold, globally deduplicated cells to the warm pool.

        Returns the number of cells submitted.  Results are *not*
        awaited here; later :meth:`run_cells` calls collect them from
        the in-flight table as their experiments need them.  Whenever a
        cold batch of ``specs`` would run serially (see
        :meth:`_runs_serial`) this is a no-op: there is no pool to
        overlap with.
        """
        if self._runs_serial(len(specs)):
            return 0
        seen: set = set()
        cells: Dict[str, CellSpec] = {}
        for spec in specs:
            key = cache_key(spec)
            if key in seen or key in self._inflight:
                STATS.cross_exp_dedup += 1
                continue
            seen.add(key)
            if not self.cache.contains(key):
                cells[key] = spec
        if cells:
            self._submit(cells, self._resolve_kernel())
        STATS.prefetched += len(cells)
        return len(cells)

    def cancel_prefetch(self) -> None:
        """Drop every in-flight cell (interrupt handling)."""
        for future in self._inflight.values():
            future.cancel()
        self._inflight.clear()

    # -- execution ladder --------------------------------------------------

    def _runs_serial(self, cells: int) -> bool:
        """Whether a cold batch of ``cells`` cells runs in-process.

        It does when there is nothing to overlap: one worker or one
        cell.  Every other batch goes to the warm pool.
        """
        return self.jobs <= 1 or cells <= 1

    def _resolve_kernel(self) -> str:
        """The bit-kernel backend for the next cold batch.

        A forced backend (``REPRO_KERNEL_BACKEND`` / ``kernel_backend=``)
        is honoured outright — forcing one that cannot be constructed on
        this host raises :class:`~repro.pcm.kernels.BackendUnavailable`
        rather than silently degrading.  ``auto`` runs ``compiled`` when
        it builds on this host and has not retired itself in this process
        (a native kernel that failed at runtime marks the backend
        ``dead`` for good), and the byte-identical pure-Python reference
        otherwise; the pick is recorded in the session counters.
        """
        if self.kernel_backend != "auto":
            kernels.get_backend(self.kernel_backend)  # raise if unavailable
            return self.kernel_backend
        try:
            compiled = kernels.get_backend("compiled")
        except kernels.BackendUnavailable:
            compiled = None
        if compiled is not None and not compiled.dead:
            STATS.kernel_compiled_picks += 1
            return "compiled"
        STATS.kernel_python_picks += 1
        return "python"

    def _submit(self, cells: Dict[str, CellSpec], kernel: str) -> None:
        """Put ``cells`` in flight on the warm pool, one future per cell."""
        pool = self._get_pool(self.jobs)
        for key, spec in cells.items():
            # Publishing creates a shared-memory segment and submit()
            # lazily forks workers; a Ctrl-C landing inside either can
            # leak an unrecorded segment or orphan an unregistered
            # worker, so defer it past the submit (it is then raised
            # here and unwinds normally, with the segment on the plane
            # and the future in the in-flight table for teardown to
            # find).
            with defer_sigint():
                handle = _publish_trace(spec)
                try:
                    future = pool.submit(
                        _simulate_with_phases, spec, handle, kernel,
                    )
                except RuntimeError as exc:  # BrokenProcessPool included
                    # The pool died under us: the cell fails as a crash
                    # and walks the retry ladder like any other.
                    future = Future()
                    future.set_exception(BrokenProcessPool(str(exc)))
                self._inflight[key] = future

    def _settle(
        self,
        keys: List[str],
        specs: Dict[str, CellSpec],
        results: Dict[str, SimulationResult],
        kernel: Optional[str],
    ) -> None:
        """The failure-handling ladder: pool -> retries -> serial fallback.

        Collects the in-flight ``keys``, then resubmits what failed for
        up to ``retries`` rounds with capped exponential backoff, then
        runs what still fails in-process.  Results land in ``results``
        by key, so whatever mix of rounds produced them, the batch is
        byte-identical to a clean run (each cell is an independent
        simulation seeded from its own spec).  ``kernel`` is None when
        every key was prefetched; a retry then picks the backend anew.
        """
        failed = self._collect(keys, results)
        if failed and kernel is None:
            kernel = self._resolve_kernel()
        for attempt in range(1, self.retries + 1):
            if not failed:
                return
            delay = min(BACKOFF_CAP, self.backoff * (2 ** (attempt - 1)))
            if delay > 0:
                time.sleep(delay)
            STATS.worker_retries += len(failed)
            _LOG.warning(
                "retrying %d failed cell(s), round %d/%d",
                len(failed), attempt, self.retries,
            )
            self._submit({key: specs[key] for key in failed}, kernel)
            failed = self._collect(failed, results)
        if failed:
            STATS.serial_fallback_cells += len(failed)
            _LOG.warning(
                "%d cell(s) failed every pool round; degrading to "
                "in-process serial execution", len(failed),
            )
            kernels.activate(kernel)
            for key in failed:
                self._store(key, simulate_cell(specs[key]), results)

    def _collect(
        self, keys: List[str], results: Dict[str, SimulationResult],
    ) -> List[str]:
        """Wait for ``keys``' in-flight futures; returns the failed keys.

        Each result is stored as it arrives.  Any failure retires the
        pool generation — with a hard terminate when a worker may be
        hung — so the next submit forks a fresh one; a clean collection
        leaves the pool warm for reuse.

        Collection is deadline-based: the timeout window restarts on
        every completion, so it fires only after the pool makes **no
        progress** for a full ``cell_timeout`` — each still-pending cell
        has then burned at least its own budget, and N hung cells cost
        one budget, not N.
        """
        pending = {key: self._inflight.pop(key) for key in keys}
        failed: List[str] = []
        hung = False
        timeout = self.cell_timeout
        deadline = (time.monotonic() + timeout) if timeout else None
        # A retire cancels the queued futures of every batch, and a future
        # cancelled that way never wakes wait(): harvest those first.
        cancelled = {f for f in pending.values() if f.cancelled()}
        self._drain_done(pending, cancelled, results, failed)
        while pending:
            wait_timeout: Optional[float] = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    for key, future in pending.items():
                        future.cancel()
                        STATS.cell_timeouts += 1
                        failed.append(key)
                        _LOG.warning(
                            "cell %s exceeded REPRO_CELL_TIMEOUT=%ss: %s",
                            key, timeout, CellTimeoutError(key),
                        )
                    hung = True
                    break
                wait_timeout = remaining
            done, _ = _futures_wait(
                set(pending.values()), timeout=wait_timeout,
                return_when=FIRST_COMPLETED,
            )
            progressed = self._drain_done(pending, done, results, failed)
            if progressed and deadline is not None:
                deadline = time.monotonic() + timeout
        if failed:
            self._retire_pool(terminate=hung)
        return failed

    def _drain_done(
        self,
        pending: Dict[str, Future],
        done,
        results: Dict[str, SimulationResult],
        failed: List[str],
    ) -> bool:
        """Harvest completed futures; returns whether any succeeded."""
        progressed = False
        for key in [k for k, f in pending.items() if f in done]:
            future = pending.pop(key)
            try:
                result, phases = future.result()
            except BrokenProcessPool as exc:
                STATS.worker_crashes += 1
                failed.append(key)
                _LOG.warning(
                    "worker died simulating cell %s: %s",
                    key, WorkerCrashError(str(exc)),
                )
            except CancelledError:
                # The executor cancelled queued cells when the pool
                # broke; charge them as crashes so they retry.
                STATS.worker_crashes += 1
                failed.append(key)
            except Exception as exc:
                STATS.worker_crashes += 1
                failed.append(key)
                _LOG.warning(
                    "worker raised simulating cell %s: %r", key, exc
                )
            else:
                PROFILER.merge(phases)
                self._store(key, result, results)
                progressed = True
        return progressed

    def _store(
        self, key: str, result: SimulationResult,
        results: Dict[str, SimulationResult],
    ) -> None:
        """Record one simulated cell and stream it to the background
        cache writer, so disk writes overlap the remaining simulation."""
        results[key] = result
        STATS.simulated += 1
        self.cache.store_async(key, result)

    # -- warm-pool plumbing ------------------------------------------------

    def _get_pool(self, workers: int):
        pool, reused = WARM_POOL.get(workers)
        if reused:
            STATS.pool_reuses += 1
        return pool

    def _retire_pool(self, terminate: bool) -> None:
        if WARM_POOL.alive:
            WARM_POOL.retire(terminate=terminate)
            STATS.pool_recycles += 1


def _publish_trace(spec: CellSpec):
    """Publish the spec's workload trace on the shared-memory plane."""
    return shm.PLANE.handle_for(
        spec.bench, spec.length, spec.config.cores, spec.config.seed
    )


def _simulate_with_phases(spec: CellSpec, handle=None, kernel=None) -> tuple:
    """Pool worker: simulate one cell, shipping its phase timings back.

    ``handle`` points at the parent-published shared-memory trace; the
    worker attaches zero-copy (once per segment per process) before
    simulating, so it never re-synthesizes a trace the parent already
    built.  Workers are reused across cells, so the per-process profiler
    is reset before each cell and its delta returned with the result.
    ``kernel`` names the parent's bit-kernel backend pick; a worker that
    cannot construct it degrades to the byte-identical pure-Python
    reference.
    """
    if handle is not None:
        shm.ensure_attached(handle)
    if kernel is not None:
        kernels.activate_preferred(kernel)
    PROFILER.reset()
    result = simulate_cell(spec)
    snapshot: Snapshot = PROFILER.snapshot()
    return result, snapshot


#: Explicitly configured runner (``configure``); None means build one per
#: call from the environment so tests that monkeypatch REPRO_* are honoured.
_configured: Optional[CellRunner] = None


def configure(jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              kernel_backend: Optional[str] = None) -> CellRunner:
    """Install the session's runner (the CLI's ``--jobs``)."""
    global _configured
    _configured = CellRunner(
        jobs=jobs, cache=cache, kernel_backend=kernel_backend,
    )
    return _configured


@contextmanager
def use_runner(runner):
    """Temporarily install ``runner`` as the session runner.

    The sweep planner uses this to swap in a spec-recording stub while
    it walks experiment preambles; anything exposing ``run_cells`` fits.
    """
    global _configured
    previous = _configured
    _configured = runner
    try:
        yield runner
    finally:
        _configured = previous


def reset() -> None:
    """Drop the configured runner, the warm pool, the trace plane, and
    zero the session counters (test isolation)."""
    global _configured
    if _configured is not None:
        _configured.cancel_prefetch()
    _configured = None
    STATS.reset()
    PROFILER.reset()
    kernels.reset()
    stateplane.PLANE.reset()
    WARM_POOL.shutdown()
    shm.reset()
    reset_corrupt_evictions()
    reset_write_drops()


def teardown(terminate: bool = False) -> None:
    """Release process-wide execution resources (interrupt handling).

    Cancels in-flight prefetched cells, shuts the warm pool down
    (``terminate=True`` skips joining possibly-hung workers), and
    unlinks every shared-memory trace segment.  Counters survive — this
    is resource cleanup, not a stats reset.
    """
    if _configured is not None:
        _configured.cancel_prefetch()
    WARM_POOL.shutdown(terminate=terminate)
    shm.PLANE.close()


def get_runner() -> CellRunner:
    """The configured runner, or a fresh environment-derived one."""
    if _configured is not None:
        return _configured
    return CellRunner()
