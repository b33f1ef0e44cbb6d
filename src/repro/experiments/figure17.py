"""Figure 17: normalized lifetime degradation on the data chips.

Correction writes are the only extra data-chip wear LazyCorrection leaves
(buffered errors are repaired for free by later demand writes).  Paper:
~0.04 % average degradation.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core import schemes
from ..stats.counters import Counters
from ..traces.profiles import WORKLOAD_ORDER
from .common import ExperimentResult, cell, mean, run_cells


def lifetime_experiment(
    title: str,
    lifetime: Callable[[Counters], float],
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Each bench's normalised chip ``lifetime`` under LazyC+PreRead, and the
    mean degradation (Figures 17 and 18)."""
    benches = workloads or WORKLOAD_ORDER
    specs = [cell(bench, schemes.lazyc_preread(), length=length) for bench in benches]
    lifetimes = [lifetime(res.counters) for res in run_cells(specs)]
    degradation = mean([1.0 - value for value in lifetimes])
    return ExperimentResult(
        title=title,
        headers=["workload", "normalized lifetime", "degradation %"],
        rows=[[bench, value, (1.0 - value) * 100.0]
              for bench, value in zip(benches, lifetimes)]
        + [["mean", 1.0 - degradation, degradation * 100.0]],
        metrics={"mean_degradation": degradation},
    )


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    result = lifetime_experiment(
        "Figure 17: normalized data-chip lifetime (LazyC+PreRead)",
        lambda counters: counters.data_chip_lifetime,
        length,
        workloads,
    )
    result.notes.append("paper: ~0.04% average data-chip lifetime degradation")
    return result
