"""Figure 11: system performance under different schemes.

Normalized speedup over the basic-VnC ``baseline`` (bigger is better).
Paper: DIN ~1.45 (baseline is 31 % degraded from DIN), LazyC ~1.21,
LazyC+PreRead ~1.30, LazyC+(2:3) ~1.31, all three ~1.37 (about 5 % from
DIN), and (1:2) matches DIN by eliminating VnC.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..traces.profiles import WORKLOAD_ORDER
from .common import Column, ExperimentResult, grid_experiment

PAPER_GMEANS = {
    "DIN": 1.45,
    "baseline": 1.0,
    "LazyC": 1.21,
    "LazyC+PreRead": 1.30,
    "LazyC+(2:3)": 1.31,
    "LazyC+PreRead+(2:3)": 1.37,
    "(1:2)": 1.45,
}


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    base = Column("baseline", "baseline", schemes.baseline())
    columns = [
        base if name == "baseline" else Column(name, name, factory(), over=base)
        for name, factory in schemes.FIGURE11_SCHEMES.items()
    ]
    return grid_experiment(
        "Figure 11: normalized speedup over baseline VnC (bigger is better)",
        workloads or WORKLOAD_ORDER,
        columns,
        length=length,
        notes=["paper gmeans: "
               + ", ".join(f"{k}={v}" for k, v in PAPER_GMEANS.items())],
    )
