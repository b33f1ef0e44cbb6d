"""Figure 14: performance over the DIMM's lifetime.

As the DIMM ages, hard errors occupy ECP entries and leave LazyCorrection
fewer spares, triggering more correction writes.  Paper: only ~0.2 %
degradation even at 100 % lifetime (ECP-6 rarely fills with hard errors).

Measured with LazyC(ECP-6) at hard-error occupancies sampled from the wear
model for lifetime fractions 0..100 %.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..core.results import geometric_mean
from .common import Column, ExperimentResult, grid_values

LIFETIME_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Write-intensive subset (the figure's sensitivity is write-driven).
DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream", "zeusmp")


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    points: Sequence[float] = LIFETIME_POINTS,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 14: normalized performance across DIMM lifetime (LazyC ECP-6)",
        headers=["lifetime"] + ["gmean speedup vs fresh", "degradation %"],
    )
    fresh = Column(None, None, schemes.lazyc())
    columns = [fresh] + [
        Column(None, None, schemes.lazyc(), {"lifetime_fraction": fraction},
               over=fresh)
        for fraction in points
    ]
    values = grid_values(workloads or DEFAULT_WORKLOADS, columns, length)
    gmeans = [geometric_mean(column) for column in zip(*values)][1:]
    for fraction, g in zip(points, gmeans):
        result.rows.append([f"{fraction:.0%}", g, (1.0 - g) * 100.0])
        result.metrics[f"life{int(fraction * 100)}"] = g
    result.notes.append("paper: ~0.2% degradation near end of life")
    return result
