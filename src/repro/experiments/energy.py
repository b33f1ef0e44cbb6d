"""Extension: energy overhead of the SD-PCM schemes.

The paper motivates PCM main memory partly by power (Section 1) but
evaluates only performance; this study quantifies the energy cost of each
scheme's WD mitigation — extra verification reads, correction RESETs, and
ECP entry programming — per demand access.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import schemes
from ..stats.energy import energy_report
from .common import Column, ExperimentResult, grid_experiment

DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream")
SCHEME_LINEUP = ("DIN", "baseline", "LazyC", "LazyC+PreRead", "(1:2)")


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    columns = [
        Column(name, name, schemes.by_name(name),
               value=lambda c: energy_report(c).wd_overhead_fraction)
        for name in SCHEME_LINEUP
    ]
    return grid_experiment(
        "Extension: WD-mitigation energy overhead (fraction of total pJ)",
        workloads or DEFAULT_WORKLOADS,
        columns,
        summary="mean",
        length=length,
        notes=[
            "DIN and (1:2) pay ~0 (no VnC); baseline pays verification reads "
            "plus correction RESETs; LazyC trades corrections for cheaper ECP "
            "entry writes; PreRead moves read energy off the critical path but "
            "cannot remove it"
        ],
    )
