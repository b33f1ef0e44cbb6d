"""Disk-backed, content-addressed cache of simulation results.

Entries live under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) as
one pickle per cell, named by the :func:`repro.perf.cellspec.cache_key`
hash.  Set ``REPRO_CACHE=0`` to bypass the cache entirely.  Writes are
atomic (tempfile + rename) so concurrent workers and interrupted runs
cannot leave a partially written entry behind.
"""

from __future__ import annotations

import errno
import logging
import os
import pickle
import queue
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .. import envconfig
from ..core.results import SimulationResult
from ..errors import CacheWriteError

_SUFFIX = ".pkl"

_LOG = logging.getLogger("repro.perf")

#: Corrupt entries evicted by ``load`` in this process (truncated pickles,
#: wrong-type payloads, unreadable files).  Session-wide, like
#: :data:`repro.perf.engine.STATS`, whose summary shows it.
_CORRUPT_EVICTIONS = 0

#: Cache writes dropped in this process because the environment refused
#: them (disk full, permissions — ``CacheWriteError``).  Session-wide;
#: shown by the engine summary.
_WRITE_DROPS = 0

#: errnos that mean "the storage environment is broken", not "the code
#: is broken": retrying the same write is pointless until the operator
#: frees space or fixes permissions, so the write is dropped, never
#: allowed to abort the sweep.
STORAGE_ERRNOS = frozenset(
    {
        errno.ENOSPC,  # no space left on device
        errno.EDQUOT,  # quota exceeded
        errno.EROFS,   # read-only filesystem
        errno.EACCES,  # permission denied
        errno.EPERM,   # operation not permitted
        errno.EIO,     # low-level I/O error
    }
)

#: Exceptions ``load`` treats as a corrupt entry.  Anything else —
#: notably MemoryError / RecursionError / KeyboardInterrupt — propagates
#: rather than silently deleting a possibly-good entry.
_CORRUPT_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
    TypeError,
    UnicodeDecodeError,
    OSError,
)


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of the on-disk cache contents."""

    root: str
    enabled: bool
    entries: int
    bytes: int


def environmental_oserror(exc: BaseException) -> bool:
    """True when ``exc`` is an ``OSError`` caused by the environment
    (disk full, quota, permissions, read-only fs, I/O error)."""
    return isinstance(exc, OSError) and exc.errno in STORAGE_ERRNOS


def corrupt_evictions() -> int:
    """Corrupt entries evicted by this process so far."""
    return _CORRUPT_EVICTIONS


def reset_corrupt_evictions() -> None:
    """Zero the session eviction counter (test isolation)."""
    global _CORRUPT_EVICTIONS
    _CORRUPT_EVICTIONS = 0


def write_drops() -> int:
    """Cache writes dropped by this process so far."""
    return _WRITE_DROPS


def reset_write_drops() -> None:
    """Zero the session write-drop counter (test isolation)."""
    global _WRITE_DROPS
    _WRITE_DROPS = 0


def _count_drop(key: str, reason: str) -> None:
    global _WRITE_DROPS
    _WRITE_DROPS += 1
    if _WRITE_DROPS == 1:
        _LOG.warning("dropping cache write %s (%s); results are "
                     "unaffected, only reuse is", key, reason)
    else:
        _LOG.debug("dropping cache write %s (%s)", key, reason)


class ResultCache:
    """Load/store :class:`SimulationResult`\\ s keyed by spec hash."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 enabled: Optional[bool] = None):
        self.root = Path(root) if root is not None else envconfig.cache_dir()
        self.enabled = envconfig.cache_enabled() if enabled is None else enabled
        self._writer: Optional[_AsyncWriter] = None

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    def contains(self, key: str) -> bool:
        """Cheap presence probe (no unpickling).

        Used by the sweep planner to decide which cells to prefetch; a
        false positive (entry corrupt, or evicted between the probe and
        the load) merely costs one late simulation, never correctness.
        """
        if not self.enabled:
            return False
        return self._path(key).is_file()

    def load(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None on miss/corruption.

        Corrupt entries — truncated/garbage pickles, pickles of the wrong
        type, unreadable files — are evicted so the store after the miss
        replaces them with a good one (instead of re-missing forever).
        """
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            return None
        except _CORRUPT_ERRORS as exc:
            self._evict_corrupt(path, repr(exc))
            return None
        if not isinstance(result, SimulationResult):
            self._evict_corrupt(path, f"payload is {type(result).__name__}")
            return None
        return result

    @staticmethod
    def _evict_corrupt(path: Path, reason: str) -> None:
        global _CORRUPT_EVICTIONS
        _CORRUPT_EVICTIONS += 1
        _LOG.debug("evicting corrupt cache entry %s (%s)", path, reason)
        try:
            path.unlink(missing_ok=True)
        except OSError:
            # e.g. the "entry" is a directory; leave it, stay a miss.
            _LOG.debug("could not evict %s", path)

    def store(self, key: str, result: SimulationResult) -> None:
        """Synchronous atomic store.

        An *environmental* write failure (disk full, quota, permissions,
        read-only fs — see :data:`STORAGE_ERRNOS`) is re-raised as a
        :class:`CacheWriteError`; anything
        else (unpicklable payload, programming errors) raises unchanged.
        """
        if not self.enabled:
            return
        tmp = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if environmental_oserror(exc):
                raise CacheWriteError(
                    f"cache write for {key} failed: {exc}"
                ) from exc
            raise

    def store_async(self, key: str, result: SimulationResult) -> None:
        """Queue a store on the background writer thread.

        Pickling + fsync-free atomic rename happen off the simulation
        path, overlapping disk writes with whatever the caller does next
        (collecting further pool results, rendering the previous
        experiment's table).  Call :meth:`flush` before relying on the
        entry being on disk; a store that failed re-raises there —
        except :class:`CacheWriteError`\\ s, which degrade to dropping
        the write (counted in the engine summary) instead of aborting
        the sweep.
        """
        if not self.enabled:
            return
        if self._writer is None or not self._writer.alive():
            # First store, or the previous writer died with the
            # interpreter's thread machinery: start a fresh one rather
            # than silently enqueueing onto a thread that will never
            # drain.
            self._writer = _AsyncWriter(self)
        self._writer.put(key, result)

    def flush(self) -> None:
        """Block until every queued async store has hit the disk.

        Re-raises the first *internal* exception a background store hit
        (unpicklable payload, programming error), matching synchronous
        :meth:`store` semantics, just deferred.  Environmental failures
        never surface here — they were already absorbed as counted
        drops.
        """
        if self._writer is not None:
            self._writer.flush()

    def info(self) -> CacheInfo:
        entries = 0
        size = 0
        if self.root.is_dir():
            for path in self.root.glob(f"*{_SUFFIX}"):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return CacheInfo(
            root=str(self.root),
            enabled=self.enabled,
            entries=entries,
            bytes=size,
        )

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed.

        Only actual deletions count: a concurrent process racing us to an
        entry (``FileNotFoundError``) does not inflate the total.
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob(f"*{_SUFFIX}"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                removed += 1
        return removed


class _AsyncWriter:
    """Daemon thread draining (key, result) pairs into synchronous stores.

    One writer per :class:`ResultCache`, started lazily on the first
    :meth:`ResultCache.store_async` (and restarted the same way if its
    thread died).  The queue is unbounded — results are a few KB each,
    and the engine flushes at the end of every batch, so the backlog is
    bounded by one batch's cold cells.
    """

    def __init__(self, cache: ResultCache) -> None:
        self._cache = cache
        self._queue: "queue.Queue[tuple]" = queue.Queue()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._drain, name="repro-cache-writer", daemon=True
        )
        self._thread.start()

    def put(self, key: str, result: SimulationResult) -> None:
        self._queue.put((key, result))

    def alive(self) -> bool:
        """Whether the drain thread is still consuming the queue."""
        return self._thread.is_alive()

    def flush(self) -> None:
        self._queue.join()
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _drain(self) -> None:
        while True:
            key, result = self._queue.get()
            try:
                self._cache.store(key, result)
            except CacheWriteError as exc:
                # Environmental: the sweep must outlive a full disk.
                _count_drop(key, str(exc))
            except BaseException as exc:
                if environmental_oserror(exc):
                    # A monkeypatched/raw OSError that skipped store()'s
                    # wrapping still degrades, never aborts.
                    _count_drop(key, repr(exc))
                elif self._error is None:  # surfaced by the next flush()
                    self._error = exc
            finally:
                self._queue.task_done()
