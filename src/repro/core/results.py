"""Simulation results and the paper's Speedup metric (Section 5.2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import SimulationError
from ..stats.counters import Counters


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of replaying one workload under one scheme."""

    workload: str
    scheme: str
    cycles: int
    instructions: int
    per_core_cpi: List[float]
    counters: Counters
    read_stall_cycles: int
    wq_stall_cycles: int

    @property
    def cpi(self) -> float:
        """Mean per-core CPI (each core runs the same instruction count)."""
        if not self.per_core_cpi:
            raise SimulationError("no cores in result")
        return sum(self.per_core_cpi) / len(self.per_core_cpi)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """The paper's metric: ``Speedup = CPI_base / CPI_tech``.

        Figures normalise to the basic-VnC ``baseline`` scheme, so a value
        above 1 means this run is faster than ``baseline``.
        """
        empty = [f"{r.workload} under {r.scheme}" for r in (self, baseline) if not r.cpi]
        if empty:
            raise SimulationError(f"no speedup for an empty run: {empty[0]}")
        return baseline.cpi / self.cpi


def geometric_mean(values: List[float]) -> float:
    """Gmean used for the figures' summary bars."""
    if not values:
        raise SimulationError("gmean of empty sequence")
    if any(v <= 0 for v in values):
        raise SimulationError("gmean requires positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
