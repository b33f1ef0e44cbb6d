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
when ``jobs`` is 1, when it holds one cell, or while the pressure
monitor forces serial execution; otherwise it runs on the warm pool,
one future per cell.  Both modes are byte-identical: every cell is an
independent simulation seeded from its own spec.

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

Cross-experiment pipelining: :meth:`CellRunner.prefetch` submits a
sweep's globally deduplicated cold cells to the warm pool up front;
later ``run_cells`` calls then collect their cells from the in-flight
futures as they complete, so experiment N+1's cells simulate while
experiment N's table renders.
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import envconfig, resilience
from ..core.results import SimulationResult
from ..errors import CellTimeoutError, WorkerCrashError
from ..pcm import kernels
from ..pcm import stateplane
from ..resilience import breaker as breaker_mod
from ..resilience import watchdog
from ..resilience.pressure import PRESSURE
from ..traces import shm
from . import batch as batchexec
from .cache import ResultCache
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

#: Result callback type: (position in the cold list, finished result).
_OnResult = Callable[[int, SimulationResult], None]


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` or the machine's CPU count."""
    return envconfig.jobs()


def default_cell_timeout() -> Optional[float]:
    """Per-cell wall-clock budget in seconds (``REPRO_CELL_TIMEOUT``).

    Unset or ``0`` disables the timeout (the default: a cold cell's run
    time scales with ``REPRO_TRACE_LEN``, so no universal bound exists).
    """
    return envconfig.cell_timeout()


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
    #: Cells submitted ahead of their experiment by the sweep planner.
    prefetched: int = 0
    #: Cells resolved from an in-flight prefetched future.
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
    #: Rounds reclaimed by the heartbeat watchdog before the deadline.
    watchdog_stalls: int = 0
    #: Circuit-breaker transitions (see ``repro.resilience.breaker``).
    breaker_opens: int = 0
    breaker_probes: int = 0
    breaker_closes: int = 0
    #: Resource-pressure policy transitions (evict/pause/suspend/serial).
    pressure_events: int = 0

    def reset(self) -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)

    def snapshot(self) -> "EngineStats":
        """An independent copy of the counters as they stand now.

        Long-lived processes (the sweep service) take one before a job
        and diff with :meth:`since` after, so each job reports its own
        numbers instead of the process-lifetime accumulation.
        """
        return dataclasses.replace(self)

    def since(self, baseline: "EngineStats") -> "EngineStats":
        """The counter deltas accumulated since ``baseline`` was taken."""
        return EngineStats(**{
            field.name: getattr(self, field.name)
            - getattr(baseline, field.name)
            for field in dataclasses.fields(self)
        })

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (JSON payloads)."""
        return dataclasses.asdict(self)

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
        if shm.PLANE.published or shm.PLANE.hits:
            base += (
                f"; trace plane: {shm.PLANE.published} segments, "
                f"{shm.PLANE.hits} reuses"
            )
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
        if (
            self.watchdog_stalls
            or self.breaker_opens
            or self.pressure_events
        ):
            base += (
                f"; supervision: {self.watchdog_stalls} watchdog stalls, "
                f"{self.breaker_opens} breaker opens "
                f"({self.breaker_probes} probes, "
                f"{self.breaker_closes} closes), "
                f"{self.pressure_events} pressure events"
            )
        plane = stateplane.PLANE
        if plane.row_hits or plane.mask_hits:
            base += f"; state plane: {plane.summary()}"
        phases = PROFILER.summary()
        return f"{base}; phases: {phases}" if phases else base


#: Counters accumulated across every ``run_cells`` call in this process.
STATS = EngineStats()


class ScopedStats:
    """Holder filled by :func:`scoped_stats` when its block exits."""

    def __init__(self) -> None:
        #: The :class:`EngineStats` delta for the block (None until exit).
        self.delta: Optional[EngineStats] = None


@contextmanager
def scoped_stats():
    """Measure the :data:`STATS` delta across a block.

    ``STATS`` is process-global on purpose (pool workers, breakers, and
    the profiler all feed it), so a long-lived process running many jobs
    would otherwise report merged numbers for every job after the first.
    This scopes a reading without resetting anything::

        with scoped_stats() as scope:
            runner.run_cells(specs)
        scope.delta.simulated  # this block's count alone

    Scopes nest and overlap safely — each holds its own baseline copy
    and never mutates the live counters.
    """
    scope = ScopedStats()
    baseline = STATS.snapshot()
    try:
        yield scope
    finally:
        scope.delta = STATS.since(baseline)


def _resilience_sink(kind: str) -> None:
    """Mirror supervision events into the session counters.

    Registered as the :mod:`repro.resilience` counter sink (a callback,
    so the breaker/pressure modules never import the engine back).
    """
    if kind == "breaker_open":
        STATS.breaker_opens += 1
    elif kind == "breaker_half_open":
        STATS.breaker_probes += 1
    elif kind == "breaker_close":
        STATS.breaker_closes += 1
    elif kind == "watchdog_stall":
        STATS.watchdog_stalls += 1
    elif kind.startswith("pressure_"):
        STATS.pressure_events += 1


resilience.register_counter_sink(_resilience_sink)


class CellRunner:
    """Executes batches of cell specs with caching and parallelism."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 retries: int = RETRIES,
                 cell_timeout: Optional[float] = None,
                 backoff: float = BACKOFF_S,
                 kernel_backend: Optional[str] = None,
                 heartbeat_s: Optional[float] = None):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self.cache = cache if cache is not None else ResultCache()
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.cell_timeout = (
            cell_timeout if cell_timeout is not None else default_cell_timeout()
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
        if heartbeat_s is not None and heartbeat_s < 0:
            raise ValueError(
                f"heartbeat_s must be >= 0, got {heartbeat_s}"
            )
        #: Watchdog no-heartbeat window, seconds; ``None``/0 disables.
        self.heartbeat_s = (
            heartbeat_s if heartbeat_s is not None else envconfig.heartbeat_s()
        ) or None
        #: Prefetched cells still cooking in the warm pool, by cache key.
        self._inflight: Dict[str, Future] = {}
        self._inflight_specs: Dict[str, CellSpec] = {}

    # -- the batched entry point ------------------------------------------

    def run_cells(self, specs: Sequence[CellSpec]) -> List[SimulationResult]:
        """Simulate (or recall) every cell, in submission order."""
        # Periodic resource-pressure check (rate-limited): applies/lifts
        # degradation policies before this batch picks its mode.
        PRESSURE.maybe_check(self.cache)
        keys = [cache_key(spec) for spec in specs]
        unique: Dict[str, CellSpec] = {}
        for key, spec in zip(keys, specs):
            if key in unique:
                STATS.deduplicated += 1
            else:
                unique[key] = spec

        results: Dict[str, SimulationResult] = {}
        cold: List[str] = []
        inflight: List[str] = []
        for key, spec in unique.items():
            if key in self._inflight:
                inflight.append(key)
                continue
            cached = self.cache.load(key)
            if cached is not None:
                results[key] = cached
                STATS.cache_hits += 1
            else:
                cold.append(key)

        # Prefetched futures first (they may already be done); failures
        # rejoin the cold list and walk the normal retry ladder.
        cold.extend(self._collect_inflight(inflight, results))

        cold_specs = [unique[key] for key in cold]

        def _store(index: int, result: SimulationResult) -> None:
            # Stream finished cells to the background cache writer so
            # disk writes overlap the remaining simulation.
            self.cache.store_async(cold[index], result)

        for key, result in zip(cold, self._simulate(cold_specs, _store)):
            results[key] = result
            STATS.simulated += 1
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
        PRESSURE.maybe_check(self.cache)
        if self._runs_serial(len(specs)):
            return 0
        kernel = self._resolve_kernel()
        hb = self._heartbeat_handle()
        submitted = 0
        seen: set = set()
        pool = None
        for spec in specs:
            key = cache_key(spec)
            if key in seen or key in self._inflight:
                STATS.cross_exp_dedup += 1
                continue
            seen.add(key)
            if self.cache.contains(key):
                continue
            if pool is None:
                pool = self._get_pool(self.jobs)
            handle = _publish_trace(spec)
            # submit() lazily forks workers; a Ctrl-C landing inside the
            # fork can orphan an unregistered worker, so defer it past
            # the submit (it is then raised here and unwinds normally,
            # with the future already in the in-flight table for
            # cancel_prefetch to find).
            with defer_sigint():
                try:
                    future = pool.submit(
                        _simulate_with_phases, spec, handle, kernel, hb,
                    )
                except (BrokenProcessPool, RuntimeError):
                    # The pool died mid-prefetch; unsubmitted cells simply
                    # run through the normal ladder when their batch comes.
                    break
                self._inflight[key] = future
                self._inflight_specs[key] = spec
            submitted += 1
        STATS.prefetched += submitted
        return submitted

    def cancel_prefetch(self) -> None:
        """Drop in-flight prefetched cells (interrupt handling)."""
        for future in self._inflight.values():
            future.cancel()
        self._inflight.clear()
        self._inflight_specs.clear()

    def _collect_inflight(
        self, keys: List[str], results: Dict[str, SimulationResult]
    ) -> List[str]:
        """Wait for this batch's prefetched futures; returns failed keys."""
        if not keys:
            return []
        futures = {key: self._inflight.pop(key) for key in keys}
        for key in keys:
            self._inflight_specs.pop(key, None)
        payloads, failed, hung, broken = self._collect_futures(futures)
        for key, (result, phases) in payloads.items():
            PROFILER.merge(phases)
            results[key] = result
            STATS.simulated += 1
            STATS.inflight_hits += 1
            self.cache.store_async(key, result)
        if hung or broken or failed:
            self._retire_pool(terminate=hung)
        return failed

    # -- execution ladder --------------------------------------------------

    def _simulate(
        self, specs: List[CellSpec], on_result: Optional[_OnResult] = None
    ) -> List[SimulationResult]:
        notify = on_result or (lambda index, result: None)
        if not specs:
            return []
        serial = self._runs_serial(len(specs))
        if serial:
            STATS.planner_serial_picks += 1
        else:
            STATS.planner_pool_picks += 1
        # One kernel backend per cold batch: activated here for the
        # in-process path and shipped by name to every pool worker.
        kernel = self._resolve_kernel()
        kernels.activate(kernel)
        if serial:
            # simulate_cell feeds PROFILER directly in-process.
            out = batchexec.simulate_batch(specs, notify)
        else:
            out = self._simulate_pooled(specs, notify, kernel)
        self._observe_kernel_health(kernel)
        return out

    def _runs_serial(self, cells: int) -> bool:
        """Whether a cold batch of ``cells`` cells runs in-process.

        It does when there is nothing to overlap (one worker or one
        cell) and while the pressure monitor forces serial execution
        (RSS over ``REPRO_MEM_BUDGET_MB``): forked workers would only
        multiply the footprint.  Every other batch goes to the warm pool.
        """
        return self.jobs <= 1 or cells <= 1 or PRESSURE.serial_forced

    def _observe_kernel_health(self, kernel: str) -> None:
        """Feed the ``kernel`` breaker from the in-process backend state.

        A native backend that crashed mid-batch retired itself
        (``dead=True``, byte-identical python replay — see
        ``pcm/kernels``); each such batch counts as one breaker failure,
        so repeated retirements eventually route ``auto`` picks straight
        to python instead of re-probing a broken toolchain every batch.
        """
        kb = breaker_mod.breaker("kernel")
        if kernel == "python":
            # A python batch says nothing about the native backends; if
            # allow() had just granted a half-open probe, release it.
            kb.abandon_probe()
            return
        try:
            backend = kernels.get_backend(kernel)
        except Exception as exc:
            kb.record_failure(exc)
            return
        if getattr(backend, "dead", False):
            kb.record_failure()
        else:
            kb.record_success()

    def _resolve_kernel(self) -> str:
        """The bit-kernel backend for the next cold batch.

        A forced backend (``REPRO_KERNEL_BACKEND`` / ``kernel_backend=``)
        is honoured outright — forcing one that cannot be constructed on
        this host raises :class:`~repro.pcm.kernels.BackendUnavailable`
        rather than silently degrading.  ``auto`` runs ``compiled`` when
        it builds on this host and the ``kernel`` circuit breaker allows
        it, and the byte-identical pure-Python reference otherwise (no C
        compiler, or a native backend that keeps failing until the
        breaker's half-open probe lets it try again); the pick is
        recorded in the session counters.
        """
        if self.kernel_backend != "auto":
            kernels.get_backend(self.kernel_backend)  # raise if unavailable
            return self.kernel_backend
        if (
            breaker_mod.breaker("kernel").allow()
            and "compiled" in kernels.available_backends()
        ):
            STATS.kernel_compiled_picks += 1
            return "compiled"
        STATS.kernel_python_picks += 1
        return "python"

    def _heartbeat_handle(self) -> Optional[str]:
        """The heartbeat segment name workers arm against (or ``None``)."""
        if not self.heartbeat_s:
            return None
        return watchdog.HEARTBEATS.ensure()

    def _simulate_pooled(
        self, specs: List[CellSpec], notify: _OnResult, kernel: str,
    ) -> List[SimulationResult]:
        """The failure-handling ladder: pool -> retries -> serial fallback.

        Results are keyed by submission index, so whatever mix of pool
        rounds and serial fallback produced them, the returned list is in
        submission order — byte-identical to a clean run (each cell is an
        independent simulation seeded from its own spec).
        """
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        pending = list(range(len(specs)))
        for attempt in range(self.retries + 1):
            if not pending:
                break
            if attempt:
                delay = min(BACKOFF_CAP, self.backoff * (2 ** (attempt - 1)))
                if delay > 0:
                    time.sleep(delay)
                STATS.worker_retries += len(pending)
                _LOG.warning(
                    "retrying %d failed cell(s), round %d/%d",
                    len(pending), attempt, self.retries,
                )
            pending = self._pool_round(
                specs, pending, results, notify, kernel
            )
        if pending:
            STATS.serial_fallback_cells += len(pending)
            _LOG.warning(
                "%d cell(s) failed every pool round; degrading to "
                "in-process serial execution", len(pending),
            )
            for index in pending:
                results[index] = simulate_cell(specs[index])
                notify(index, results[index])
        return results  # type: ignore[return-value]  # every slot is filled

    def _pool_round(
        self,
        specs: List[CellSpec],
        indices: List[int],
        results: List[Optional[SimulationResult]],
        notify: _OnResult,
        kernel: str,
    ) -> List[int]:
        """Run one warm-pool attempt over ``indices``; returns the failures.

        Any failure retires the pool generation — with a hard terminate
        when a worker may be hung — so the next round (or next batch)
        forks a fresh one; clean rounds leave the pool warm for reuse.
        """
        workers = min(self.jobs, len(indices))
        pool = self._get_pool(workers)
        hb = self._heartbeat_handle()
        futures: Dict[int, Future] = {}
        try:
            for index in indices:
                handle = _publish_trace(specs[index])
                # Defer Ctrl-C past the lazy worker fork inside submit()
                # (see prefetch); deferred interrupts are raised at the
                # end of each iteration and unwind through run_cells.
                with defer_sigint():
                    futures[index] = pool.submit(
                        _simulate_with_phases, specs[index], handle, kernel,
                        hb,
                    )
        except (BrokenProcessPool, RuntimeError):
            for future in futures.values():
                future.cancel()
            STATS.worker_crashes += len(indices)
            self._retire_pool(terminate=False)
            return list(indices)
        payloads, failed, hung, broken = self._collect_futures(futures)
        for index, (result, phases) in payloads.items():
            PROFILER.merge(phases)
            results[index] = result
            notify(index, result)
        if hung or broken or failed:
            self._retire_pool(terminate=hung)
        return failed

    def _collect_futures(
        self, futures: Dict[object, Future],
    ) -> Tuple[Dict[object, tuple], List[object], bool, bool]:
        """Deadline-based collection of (result, phases) payloads.

        Returns ``(payloads, failed, hung, broken)``.  The timeout
        window restarts on every completion, so it fires only after the
        pool makes **no progress** for a full ``cell_timeout`` — each
        still-pending cell has then burned at least its own budget
        (unlike the old submission-order ``result(timeout=...)`` walk,
        where N hung cells serially accumulated N budgets and a cell's
        window silently included time spent waiting on earlier futures).

        With ``heartbeat_s`` set, a :class:`~repro.resilience.watchdog.
        Watchdog` thread supervises the round: workers stamp the shared
        heartbeat plane as they progress, and when *neither* completions
        nor heartbeats move for the window, the round is reclaimed early
        — the pending cells rejoin the retry ladder exactly as a
        deadline expiry would send them, typically long before the
        (necessarily generous) deadline fires.
        """
        payloads: Dict[object, tuple] = {}
        failed: List[object] = []
        hung = broken = False
        pending = dict(futures)
        timeout = self.cell_timeout
        deadline = (time.monotonic() + timeout) if timeout else None
        supervisor: Optional[watchdog.Watchdog] = None
        if self.heartbeat_s and pending:
            supervisor = watchdog.Watchdog(
                watchdog.HEARTBEATS, self.heartbeat_s
            )
            supervisor.start()
        try:
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
                                key, timeout,
                                CellTimeoutError(str(key)),
                            )
                        hung = True
                        break
                    wait_timeout = remaining
                if supervisor is not None:
                    wait_timeout = (
                        supervisor.poll_s if wait_timeout is None
                        else min(wait_timeout, supervisor.poll_s)
                    )
                done, _ = _futures_wait(
                    set(pending.values()), timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    if supervisor is not None and supervisor.stalled():
                        for key, future in pending.items():
                            future.cancel()
                            failed.append(key)
                        resilience.record_event(
                            "watchdog_stall",
                            f"no heartbeat or completion for "
                            f"{self.heartbeat_s}s; reclaiming "
                            f"{len(pending)} pending cell(s)",
                        )
                        _LOG.warning(
                            "watchdog: no heartbeat for %ss; reclaiming %d "
                            "pending cell(s) ahead of the deadline",
                            self.heartbeat_s, len(pending),
                        )
                        hung = True
                        break
                    continue  # re-check deadline / watchdog and re-wait
                self._drain_done(pending, done, payloads, failed)
                broken = broken or self._round_broken
                if self._round_progressed:
                    if supervisor is not None:
                        supervisor.touch()
                    if deadline is not None:
                        deadline = time.monotonic() + timeout
        finally:
            if supervisor is not None:
                supervisor.stop()
        return payloads, failed, hung, broken

    def _drain_done(
        self,
        pending: Dict[object, Future],
        done,
        payloads: Dict[object, tuple],
        failed: List[object],
    ) -> None:
        """Harvest completed futures; sets ``_round_progressed`` /
        ``_round_broken`` for the collection loop."""
        self._round_progressed = False
        self._round_broken = False
        for key in [k for k, f in pending.items() if f in done]:
            future = pending.pop(key)
            try:
                payloads[key] = future.result()
                self._round_progressed = True
            except BrokenProcessPool as exc:
                STATS.worker_crashes += 1
                self._round_broken = True
                failed.append(key)
                _LOG.warning(
                    "worker died simulating cell %s: %s",
                    key, WorkerCrashError(str(exc)),
                )
            except CancelledError:
                # The executor cancelled queued cells when the pool
                # broke; charge them as crashes so they retry.
                STATS.worker_crashes += 1
                self._round_broken = True
                failed.append(key)
            except Exception as exc:
                STATS.worker_crashes += 1
                failed.append(key)
                _LOG.warning(
                    "worker raised simulating cell %s: %r", key, exc
                )

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


def _simulate_with_phases(
    spec: CellSpec, handle=None, kernel=None, hb=None
) -> tuple:
    """Pool worker: simulate one cell, shipping its phase timings back.

    ``handle`` points at the parent-published shared-memory trace; the
    worker attaches zero-copy (once per segment per process) before
    simulating, so it never re-synthesizes a trace the parent already
    built.  Workers are reused across cells, so the per-process profiler
    is reset before each cell and its delta returned with the result.
    ``kernel`` names the parent's bit-kernel backend pick; a worker that
    cannot construct it degrades to the byte-identical pure-Python
    reference.  ``hb`` names the parent's heartbeat segment: the worker
    stamps it per cell (and the armed event loop stamps it mid-cell) so
    the watchdog can tell slow from wedged.
    """
    if hb is not None:
        watchdog.arm(hb)
    if handle is not None:
        shm.ensure_attached(handle)
    if kernel is not None:
        kernels.activate_preferred(kernel)
    PROFILER.reset()
    result = simulate_cell(spec)
    snapshot: Snapshot = PROFILER.snapshot()
    watchdog.pulse()
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
    WARM_POOL.reset_counters()
    shm.reset()
    resilience.reset_all()
    from .cache import reset_corrupt_evictions, reset_write_drops

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
    watchdog.HEARTBEATS.close()


def get_runner() -> CellRunner:
    """The configured runner, or a fresh environment-derived one."""
    if _configured is not None:
        return _configured
    return CellRunner()
