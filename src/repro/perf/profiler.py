"""Per-phase timing for the simulation pipeline.

Two granularities:

* **Coarse** (always on, negligible cost — two timer pairs per cell):
  :func:`repro.perf.cellspec.simulate_cell` records ``trace_gen`` (workload
  synthesis) and ``simulate`` (event-loop replay) per cell.  The process
  pool ships each worker's phase snapshot back with its result, so the
  ``--jobs`` engine summary line reports aggregate phase timings without
  enabling full profiling.
* **Fine** (opt-in via ``REPRO_PROFILE=1`` or ``repro perf profile``):
  additionally times the VnC write path (``write_plan``/``write_commit``)
  and, when kernel timers are installed, the bit-mask sampling kernels
  (``bit_kernels``).  Fine timing adds a ``perf_counter`` pair per write
  op / kernel call, which inflates call-heavy code — use it to compare
  phases, not as an absolute benchmark.

Phases overlap deliberately: ``write_plan`` and ``bit_kernels`` are both
inside ``simulate``; the CLI's profile table derives the non-overlapping
remainder (event loop + controller + hierarchy bookkeeping) by
subtraction.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from .. import envconfig

_PERF = time.perf_counter

#: Phase snapshot type: name -> (seconds, calls).
Snapshot = Dict[str, Tuple[float, int]]


def _env_fine() -> bool:
    return envconfig.profile_fine()


class PhaseProfiler:
    """Accumulates wall-clock seconds (and call counts) per phase."""

    __slots__ = ("fine", "seconds", "calls")

    def __init__(self) -> None:
        #: True when fine-grained (per-write / per-kernel) timing is on.
        self.fine = _env_fine()
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + calls

    def merge(self, snapshot: Snapshot) -> None:
        """Fold a worker process's snapshot into this profiler."""
        for phase, (seconds, calls) in snapshot.items():
            self.add(phase, seconds, calls)

    def snapshot(self) -> Snapshot:
        return {
            phase: (self.seconds[phase], self.calls[phase])
            for phase in self.seconds
        }

    def reset(self) -> None:
        """Clear accumulated phases (the fine flag is left as-is)."""
        self.seconds.clear()
        self.calls.clear()

    def summary(self) -> str:
        """One-line aggregate, e.g. ``trace_gen 0.21s, simulate 3.04s``."""
        if not self.seconds:
            return ""
        order = sorted(self.seconds, key=self.seconds.get, reverse=True)
        return ", ".join(f"{p} {self.seconds[p]:.2f}s" for p in order)


#: Process-wide profiler; workers snapshot it, the parent merges.
PROFILER = PhaseProfiler()

#: Backend methods wrapped by :func:`install_kernel_timers`.
_KERNEL_NAMES = ("sample_mask_int", "sample_masks_int", "sample_masks_rows",
                 "popcount_rows", "bit_positions_int", "encode_stored_int",
                 "decode_int", "encode_stored_rows", "decode_rows",
                 "mask_from_draws")

#: The backend instance currently carrying timer wrappers (None = none).
_timed_backend = None


def install_kernel_timers() -> None:
    """Wrap the active kernel backend's hot methods with timers.

    Idempotent; only meaningful together with fine profiling.  The hot
    path dispatches through the registry's active backend instance
    (``VnCExecutor.kernels``), so shadowing the bound methods in the
    instance dict times every call regardless of which backend the
    engine picked.
    """
    global _timed_backend
    from ..pcm import kernels

    backend = kernels.active()
    if _timed_backend is backend:
        return
    uninstall_kernel_timers()
    for name in _KERNEL_NAMES:
        original = getattr(backend, name)

        def timed(*args, _original=original, **kwargs):
            t0 = _PERF()
            try:
                return _original(*args, **kwargs)
            finally:
                PROFILER.add("bit_kernels", _PERF() - t0)

        setattr(backend, name, timed)
    _timed_backend = backend


def uninstall_kernel_timers() -> None:
    """Restore the unwrapped backend methods (inverse of the install)."""
    global _timed_backend
    if _timed_backend is None:
        return
    for name in _KERNEL_NAMES:
        # The wrappers shadow the class methods from the instance dict;
        # dropping them restores normal class lookup.
        _timed_backend.__dict__.pop(name, None)
    _timed_backend = None
