"""Figure 16: sensitivity to the (n:m) ratio.

Larger n:m ratios waste less capacity but leave more adjacent strips live,
so performance degrades monotonically from (1:2) (no VnC at all) through
(2:3), (3:4), (7:8).  Paper: (1:2) shows no degradation versus DIN and the
curve falls monotonically toward the baseline as n/m -> 1.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..alloc.strips import usable_fraction
from ..core import schemes
from ..traces.profiles import WORKLOAD_ORDER
from .common import Column, ExperimentResult, grid_experiment

RATIOS = ((1, 2), (2, 3), (3, 4), (7, 8))


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    ratios: Sequence[tuple] = RATIOS,
) -> ExperimentResult:
    base = Column(None, None, schemes.baseline())
    columns = [base] + [
        Column(f"({n}:{m})", f"{n}:{m}", schemes.nm_alloc(n, m), over=base)
        for n, m in ratios
    ]
    result = grid_experiment(
        "Figure 16: speedup over baseline for different (n:m) allocators",
        workloads or WORKLOAD_ORDER,
        columns,
        length=length,
        notes=["paper: monotone increase in speedup from (7:8) toward (1:2); "
               "(1:2) eliminates VnC entirely"],
    )
    result.rows.append(
        ["usable capacity"] + [usable_fraction(n, m) for n, m in ratios]
    )
    return result
