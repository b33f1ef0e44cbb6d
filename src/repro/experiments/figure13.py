"""Figure 13: system performance vs ECP entry count.

Normalized speedup over baseline VnC.  Paper: growing ECP from 0 to 6
yields ~21 % improvement (= the LazyC gain); beyond 6 the return is
negligible.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..traces.profiles import WORKLOAD_ORDER
from .common import Column, ExperimentResult, grid_experiment

ECP_LEVELS = (0, 2, 4, 6, 8, 10)


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    levels: Sequence[int] = ECP_LEVELS,
) -> ExperimentResult:
    base = Column(None, None, schemes.baseline())
    columns = [base] + [
        Column(f"ECP-{n}", f"ecp{n}",
               schemes.lazyc(ecp_entries=n) if n else schemes.baseline(),
               over=base)
        for n in levels
    ]
    return grid_experiment(
        "Figure 13: normalized speedup vs ECP entries (LazyC over baseline)",
        workloads or WORKLOAD_ORDER,
        columns,
        length=length,
        notes=["paper: ECP-6 reaches ~1.21x; more entries add little"],
    )
