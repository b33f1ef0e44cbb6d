"""Figure 12: correction operations per write vs ECP entry count.

LazyCorrection buffers WD errors in spare ECP entries; more entries mean
fewer overflow-triggered correction writes.  Paper: ECP-0 (= baseline)
triggers ~1.8 corrections per write, ECP-4 only ~0.14, ECP-6 is sufficient
for all but mcf (ECP-8 still shows 0.04 for mcf); gemsFDTD flips few bits
per write and sits much lower throughout.
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
    columns = [
        Column(f"ECP-{n}", f"ecp{n}",
               schemes.lazyc(ecp_entries=n) if n else schemes.baseline(),
               value=lambda c: c.corrections_per_write)
        for n in levels
    ]
    return grid_experiment(
        "Figure 12: corrections per write vs ECP entries (LazyC)",
        workloads or WORKLOAD_ORDER,
        columns,
        summary="mean",
        length=length,
        notes=["paper means: ECP-0 ~1.8, ECP-4 ~0.14, ECP-6+ ~0"],
    )
