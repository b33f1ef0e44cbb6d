"""Figure 19: integrating LazyCorrection with write cancellation [22].

Paper: WC alone improves basic VnC only modestly (cancelled VnC writes
re-disturb their neighbours on retry); LazyC alone gives ~21 %; WC+LazyC
combine to ~31 % because they exploit different slack (read priority vs
correction elimination).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..traces.profiles import WORKLOAD_ORDER
from .common import Column, ExperimentResult, grid_experiment

SCHEMES = ("VnC", "eager", "WC", "LazyC", "WC+LazyC")


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    base = Column("VnC", "VnC", schemes.by_name("VnC"))
    columns = [base] + [
        Column(name, name, schemes.by_name(name), over=base)
        for name in SCHEMES[1:]
    ]
    return grid_experiment(
        "Figure 19: write cancellation x LazyC (speedup over baseline VnC)",
        workloads or WORKLOAD_ORDER,
        columns,
        length=length,
        notes=[
            "paper gmeans: WC ~1.05-1.1, LazyC ~1.21, WC+LazyC ~1.31",
            "the extra 'eager' column isolates scheduling from pre-emption: in "
            "our controller WC implies eager write issue (as in [22]), which by "
            "itself already beats the paper's bursty-drain baseline; compare WC "
            "against 'eager' for the cancellation effect the paper reports",
        ],
    )
