"""A process-wide warm :class:`ProcessPoolExecutor` with generations.

PR 1's engine built a fresh pool for every pool round of every batch,
so each retry round and each experiment paid fork + interpreter warm-up
for the full worker set.  This module keeps **one** executor alive for
the whole process and hands it out batch after batch, experiment after
experiment.

The PR 3 crash ladder is preserved through *generations*: any failure
in a round (worker exception, broken pool, per-cell timeout) retires
the current generation — tearing the executor down, with a hard
``terminate`` when a worker may be hung — and the next round lazily
forks a fresh one.  Clean rounds, the overwhelmingly common case, reuse
the warm workers.

The singleton :data:`WARM_POOL` is registered with :mod:`atexit`;
callers that need deterministic teardown (tests, the engine's
``reset``) call :meth:`WarmPool.shutdown` directly — it is idempotent.
"""

from __future__ import annotations

import atexit
import logging
import signal
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Optional, Tuple

_LOG = logging.getLogger("repro.perf")


@contextmanager
def defer_sigint():
    """Hold SIGINT back for the duration of a publish/fork/submit burst.

    A Ctrl-C landing inside ``ProcessPoolExecutor``'s lazy worker spawn
    is hazardous two ways: raised inside an ``os.register_at_fork``
    callback it is *swallowed* ("Exception ignored in ..."), and raised
    between the fork and the ``_processes`` bookkeeping it orphans a
    worker no teardown can find.  Raised inside a trace segment's
    creation it leaks the segment, which exists before the plane has
    recorded it.  Masking the signal in the main thread is not enough:
    the kernel hands a process-directed SIGINT to any thread that does
    not block it (the cache writer, an executor's manager thread), and
    CPython then raises ``KeyboardInterrupt`` in the main thread
    regardless of its mask.  So the Python-level handler is swapped for
    one that only records the interrupt; on exit the previous handler
    is restored and a recorded interrupt is re-raised through it
    (``signal.raise_signal``) — under the default handler a normal
    ``KeyboardInterrupt`` at a safe point.  Bursts are sub-second, so
    the added Ctrl-C latency is imperceptible.  Outside the main thread,
    where Python runs no signal handler, this is a no-op.
    """
    caught = []
    try:
        previous = signal.signal(
            signal.SIGINT, lambda signum, frame: caught.append(signum)
        )
    except ValueError:  # not the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(
            signal.SIGINT,
            signal.default_int_handler if previous is None else previous,
        )
        if caught:
            signal.raise_signal(signal.SIGINT)


class WarmPool:
    """One lazily (re)forked executor, reused until a generation retires."""

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        #: Monotonic generation counter; bumps on every fresh fork.
        self.generation = 0

    @property
    def alive(self) -> bool:
        return self._pool is not None

    def get(self, workers: int) -> Tuple[ProcessPoolExecutor, bool]:
        """The warm executor (reused flag True) or a freshly forked one.

        A request for more workers than the current generation holds
        re-forks at the larger size; a request for fewer simply reuses the
        warm pool, which costs nothing because idle workers sleep on the
        call queue.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if self._pool is not None and self._workers >= workers:
            return self._pool, True
        if self._pool is not None:
            _LOG.debug(
                "growing warm pool %d -> %d workers", self._workers, workers
            )
            self._teardown(terminate=False)
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self._workers = workers
        self.generation += 1
        return self._pool, False

    def retire(self, terminate: bool = False) -> None:
        """End the current generation after a failure.

        ``terminate=True`` skips joining the workers (one may be hung on
        a cell that exceeded its budget) and SIGTERMs them directly.
        The next :meth:`get` forks a fresh generation.
        """
        if self._pool is None:
            return
        _LOG.debug(
            "retiring warm-pool generation %d (terminate=%s)",
            self.generation, terminate,
        )
        self._teardown(terminate=terminate)

    def shutdown(self, terminate: bool = False) -> None:
        """Deterministic teardown (atexit / tests)."""
        self._teardown(terminate=terminate)

    def _teardown(self, terminate: bool) -> None:
        pool, self._pool, self._workers = self._pool, None, 0
        if pool is None:
            return
        # A Ctrl-C mid-teardown would abort the worker-termination loop
        # and orphan the remaining workers; defer it until they are dealt
        # with.  (``wait=True`` joins only live, non-hung workers here —
        # the hung case always goes through ``terminate=True``.)
        with defer_sigint():
            if terminate:
                _terminate_pool(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that may hold a hung worker, without joining it."""
    # Snapshot the worker list BEFORE shutdown: ``shutdown()`` clears
    # ``_processes`` to None on return (even with ``wait=False``), so
    # reading it afterwards would SIGTERM nothing and leave any worker
    # the management thread failed to reach orphaned — blocked forever
    # on the call queue, holding inherited pipes (stdout!) open.
    # ``_processes`` is private but stable across supported CPythons,
    # and the fallback is merely a leak.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    # Joining a hung worker would block forever (including at interpreter
    # exit); SIGTERM the processes directly.
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass


#: The process-wide warm pool every :class:`~repro.perf.engine.CellRunner`
#: draws from.  Sharing one executor is what lets pool warm-up amortise
#: across batches *and* experiments.
WARM_POOL = WarmPool()

atexit.register(WARM_POOL.shutdown)
