"""Shared-memory trace plane: synthesize each workload trace once.

Figures reuse the same ``(bench, length, cores, seed)`` workload dozens
of times — every scheme column of every figure replays the identical
trace — yet PR 1's engine re-synthesized it inside every pool worker
for every cell.  This module gives traces a single home per sweep:

* the **parent** synthesizes each distinct workload once
  (:func:`workload_for` memoizes in-process, which also speeds up
  serial runs) and, for pooled execution, publishes its columnar numpy
  arrays in a :class:`multiprocessing.shared_memory.SharedMemory`
  segment via :meth:`TracePlane.handle_for`;
* **workers** attach zero-copy with :func:`ensure_attached`, keeping a
  per-process attach cache so each segment is mapped once per worker no
  matter how many cells replay it.

Equivalence: an attached workload is rebuilt from the *same bytes* the
parent synthesized (`is_write` bool, ``address``/``gap`` int64 — the
``.npz`` column layout), with the same
:class:`~repro.traces.profiles.BenchmarkProfile` objects, so simulation
results are byte-identical to in-worker synthesis.  Serial execution
never touches shared memory at all (the memo dict is the fast path).

Cleanup: every segment the parent publishes is unlinked by
:meth:`TracePlane.close`, which runs via :mod:`atexit` — covering
normal exit *and* Ctrl-C, since ``KeyboardInterrupt`` unwinds to a
normal interpreter shutdown.  Workers never unlink (they deregister
their attachments from the resource tracker, which would otherwise
unlink segments early on worker death and spam leak warnings).
"""

from __future__ import annotations

import atexit
import logging
import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from ..resilience import breaker as _breaker
from .profiles import profile
from .record import TraceArray
from .workload import Workload, homogeneous_workload

_LOG = logging.getLogger("repro.traces.shm")

#: Segment-name prefix; the SIGINT leak check greps /dev/shm for it.
SHM_PREFIX = "reprotp"

#: A workload's identity on the plane.
TraceKey = Tuple[str, int, int, int]


def trace_key(bench: str, length: int, cores: int, seed: int) -> TraceKey:
    return (bench, length, cores, seed)


@dataclass(frozen=True)
class TraceHandle:
    """Picklable pointer to one published workload trace."""

    key: TraceKey
    name: str  # shared-memory segment name
    cores: int
    length: int  # per-core record count


#: Per-process workload memo: parent-synthesized and worker-attached
#: workloads both land here, keyed by :func:`trace_key`.  Traces are a
#: few hundred KB each, so a full sweep's distinct set is a few MB.
_WORKLOADS: Dict[TraceKey, Workload] = {}

#: Worker-side attachments kept alive (dropping the SharedMemory object
#: would invalidate the numpy views into its buffer).
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def workload_for(bench: str, length: int, cores: int, seed: int) -> Workload:
    """The memoized workload for a cell (synthesizing on first use).

    This is the single entry point :func:`repro.perf.cellspec.simulate_cell`
    uses: in the parent (serial mode) it memoizes plain synthesized
    workloads; in a pool worker it first sees whatever
    :func:`ensure_attached` mapped from shared memory.
    """
    key = trace_key(bench, length, cores, seed)
    workload = _WORKLOADS.get(key)
    if workload is None:
        workload = homogeneous_workload(
            bench, cores=cores, length=length, seed=seed
        )
        _WORKLOADS[key] = workload
    return workload


def _column_layout(cores: int, length: int) -> Tuple[int, int, int]:
    """Byte offsets of the (is_write, address, gap) blocks and total size."""
    iw_bytes = cores * length  # bool
    col_bytes = cores * length * 8  # int64
    return iw_bytes, iw_bytes + col_bytes, iw_bytes + 2 * col_bytes


def _views(
    buf: memoryview, cores: int, length: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    addr_off, gap_off, total = _column_layout(cores, length)
    shape = (cores, length)
    is_write = np.ndarray(shape, dtype=bool, buffer=buf, offset=0)
    address = np.ndarray(shape, dtype=np.int64, buffer=buf, offset=addr_off)
    gap = np.ndarray(shape, dtype=np.int64, buffer=buf, offset=gap_off)
    return is_write, address, gap


def _as_workload(
    bench: str, cores: int,
    is_write: np.ndarray, address: np.ndarray, gap: np.ndarray,
) -> Workload:
    """Build a Workload over (read-only) per-core column views."""
    prof = profile(bench)
    traces = []
    for c in range(cores):
        iw, addr, g = is_write[c], address[c], gap[c]
        for arr in (iw, addr, g):
            arr.flags.writeable = False
        traces.append(TraceArray(iw, addr, g))
    return Workload(bench, traces, [prof] * cores)


class TracePlane:
    """Parent-side registry of published shared-memory trace segments."""

    def __init__(self) -> None:
        self._segments: Dict[TraceKey, Tuple[shared_memory.SharedMemory,
                                             TraceHandle]] = {}
        self._counter = 0
        #: Distinct workloads published as segments.
        self.published = 0
        #: Cells that reused an already-published segment.
        self.hits = 0
        #: Publishes skipped because the plane was suspended or the shm
        #: breaker was open (the workers synthesized in-process instead).
        self.suppressed = 0
        #: Set by the pressure monitor when /dev/shm headroom runs out.
        self.suspended = False
        self._atexit_registered = False

    def suspend(self) -> None:
        """Stop publishing new segments (existing ones stay mapped)."""
        self.suspended = True

    def resume(self) -> None:
        self.suspended = False

    def handle_for(
        self, bench: str, length: int, cores: int, seed: int
    ) -> Optional[TraceHandle]:
        """Publish (or reuse) the segment for one workload.

        Returns ``None`` for degenerate empty workloads (zero-byte
        segments are invalid), while the plane is suspended by the
        pressure monitor, or while the ``shm`` circuit breaker is open —
        the worker then synthesizes in-process, which is byte-identical
        (and instant at length 0).  A failed segment creation feeds the
        breaker and degrades the same way instead of killing the sweep.
        """
        if length <= 0 or cores <= 0:
            return None
        key = trace_key(bench, length, cores, seed)
        entry = self._segments.get(key)
        if entry is not None:
            self.hits += 1
            return entry[1]
        if self.suspended:
            self.suppressed += 1
            return None
        shm_breaker = _breaker.breaker("shm")
        if not shm_breaker.allow():
            self.suppressed += 1
            return None

        workload = workload_for(bench, length, cores, seed)
        _, _, total = _column_layout(cores, length)
        name = f"{SHM_PREFIX}_{os.getpid()}_{self._counter}"
        self._counter += 1
        handle = TraceHandle(key=key, name=name, cores=cores, length=length)
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=total, name=name
            )
        except OSError as exc:
            shm_breaker.record_failure(exc)
            self.suppressed += 1
            _LOG.warning("could not publish trace segment %s (%s); "
                         "workers will synthesize in-process", name, exc)
            return None
        # Register BEFORE filling: from here on :meth:`close` owns the
        # segment's lifetime, so a Ctrl-C landing anywhere in the column
        # copy below cannot leak it — the leak window is one bytecode
        # (create returning -> this store), not the whole copy loop.
        self._segments[key] = (segment, handle)
        if not self._atexit_registered:
            # Lazy registration keeps import side-effect free; one hook
            # covers every segment this plane ever publishes.
            atexit.register(self.close)
            self._atexit_registered = True
        try:
            is_write, address, gap = _views(segment.buf, cores, length)
            for c, trace in enumerate(workload.traces):
                is_write[c] = trace.is_write
                address[c] = trace.address
                gap[c] = trace.gap
        except BaseException:
            # Drop the half-filled segment so a later hit can never see
            # garbage bytes.  Unlink BEFORE close: the column views above
            # still hold buffer exports, so ``segment.close()`` raises
            # ``BufferError`` here — with close-first that replaced the
            # unlink entirely and leaked the segment (the chaos suite's
            # SIGINT leak check caught exactly this).  ``unlink`` is a
            # plain ``shm_unlink(name)`` and cannot BufferError; each
            # step swallows ``BaseException`` so a second Ctrl-C cannot
            # skip the other.
            try:
                segment.unlink()
            except BaseException:
                _LOG.debug("could not unlink %s", name, exc_info=True)
            try:
                segment.close()
            except BaseException:
                pass  # exported views; dropped with this frame anyway
            self._segments.pop(key, None)
            raise
        shm_breaker.record_success()
        self.published += 1
        return handle

    def close(self) -> None:
        """Unlink every published segment (idempotent; atexit-registered)."""
        segments, self._segments = self._segments, {}
        for segment, handle in segments.values():
            # Unlink before close: if anything still exports the buffer,
            # close() raises BufferError — that must never cost the
            # unlink (the /dev/shm entry is the leak; the mapping dies
            # with the process regardless).
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            except Exception:  # never let cleanup mask the real error
                _LOG.debug("could not unlink %s", handle.name, exc_info=True)
            try:
                segment.close()
            except Exception:
                _LOG.debug("could not close %s", handle.name, exc_info=True)

    def reset_counters(self) -> None:
        self.published = 0
        self.hits = 0
        self.suppressed = 0
        self.suspended = False


#: The process-wide plane the engine publishes through.
PLANE = TracePlane()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach a worker to a parent-published segment.

    On Python >= 3.13 the attachment opts out of resource tracking
    (``track=False``) — only the parent, as creator, owns the segment's
    lifetime.  Earlier Pythons register attachments too, but the
    resource tracker is shared across the process tree and registration
    is set-based, so the duplicate is a no-op and the parent's single
    ``unlink`` still deregisters cleanly; the tracker doubles as a
    safety net that unlinks the segment if the whole tree dies without
    cleanup.  (Do **not** explicitly unregister here: with a shared
    tracker that would clobber the parent's registration and make its
    later unlink a tracker error.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def ensure_attached(handle: TraceHandle) -> None:
    """Worker-side: map the handle's segment into the workload memo.

    Idempotent per process: a workload already memoized under the
    handle's key (from a previous cell, or inherited over ``fork``) is
    kept, so each worker attaches each segment at most once.  A missing
    segment (e.g. the parent already unlinked during teardown) is not an
    error — :func:`workload_for` falls back to in-process synthesis,
    which produces identical bytes.
    """
    if handle.key in _WORKLOADS:
        return
    try:
        segment = _attach_segment(handle.name)
    except FileNotFoundError:
        _LOG.debug("segment %s vanished; synthesizing locally", handle.name)
        return
    _ATTACHED[handle.name] = segment
    is_write, address, gap = _views(segment.buf, handle.cores, handle.length)
    bench = handle.key[0]
    _WORKLOADS[handle.key] = _as_workload(
        bench, handle.cores, is_write, address, gap
    )


def reset() -> None:
    """Drop every memoized workload and attachment; unlink published
    segments (test isolation and the engine's ``reset``)."""
    _WORKLOADS.clear()
    for segment in _ATTACHED.values():
        try:
            segment.close()
        except Exception:
            pass
    _ATTACHED.clear()
    PLANE.close()
    PLANE.reset_counters()
