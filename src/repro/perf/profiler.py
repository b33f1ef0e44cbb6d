"""Per-phase timing for the simulation pipeline.

:func:`repro.perf.cellspec.simulate_cell` records two coarse phases per
cell — ``trace_gen`` (workload synthesis) and ``simulate`` (event-loop
replay) — at the cost of two timer pairs.  The process pool ships each
worker's phase snapshot back with its result, so the ``--jobs`` engine
summary line reports aggregate phase timings for the whole run.

Finer splits (VnC planning, bit kernels, ECP, the controller) are measured
from outside the program: ``perfbench/run.py --trace 1`` records per-layer
self time for every layer.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Phase snapshot type: name -> (seconds, calls).
Snapshot = Dict[str, Tuple[float, int]]


class PhaseProfiler:
    """Accumulates wall-clock seconds (and call counts) per phase."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
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
        """Clear accumulated phases."""
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
