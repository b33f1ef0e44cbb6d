"""Figure 5: runtime overhead of basic VnC on super dense PCM.

Paper: verification costs ~19 %, correction ~28 %, total VnC ~47 % over a
(hypothetical) super dense PCM that performs no VnC.

Decomposition:

* reference      — super dense PCM, writes unprotected (no VnC at all),
* verification   — VnC whose corrections never fire (an unbounded ECP
  absorbs every error), isolating the pre/post read cost,
* full VnC       — the baseline scheme; the correction-only bar is the
  additive remainder, as the paper stacks it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import LINE_BITS, SchemeConfig
from ..core import schemes
from ..core.results import geometric_mean
from ..traces.profiles import WORKLOAD_ORDER
from .common import ExperimentResult, cell, run_cells


def unprotected() -> SchemeConfig:
    """Super dense PCM with VnC disabled (timing reference only)."""
    return SchemeConfig(bitlines="unverified")


def verification_only() -> SchemeConfig:
    """VnC that never corrects: an ECP with one entry per cell."""
    return SchemeConfig(lazy_correction=True, ecp_entries=LINE_BITS)


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 5: VnC overhead at runtime (normalized runtime, lower is better)",
        headers=["workload", "verification", "correction", "VnC total"],
    )
    verif_bars, corr_bars, total_bars = [], [], []
    benches = workloads or WORKLOAD_ORDER
    specs = [
        cell(bench, factory(), length=length)
        for bench in benches
        for factory in (unprotected, verification_only, schemes.baseline)
    ]
    cells = iter(run_cells(specs))
    for bench in benches:
        ref, verif, full = next(cells), next(cells), next(cells)
        v = verif.cpi / ref.cpi
        t = full.cpi / ref.cpi
        c = 1.0 + (t - v)  # additive stacked decomposition
        result.rows.append([bench, v, c, t])
        verif_bars.append(v)
        corr_bars.append(c)
        total_bars.append(t)
    result.rows.append(
        [
            "gmean",
            geometric_mean(verif_bars),
            geometric_mean(corr_bars),
            geometric_mean(total_bars),
        ]
    )
    result.metrics["verification_overhead"] = geometric_mean(verif_bars) - 1.0
    result.metrics["correction_overhead"] = geometric_mean(corr_bars) - 1.0
    result.metrics["total_overhead"] = geometric_mean(total_bars) - 1.0
    result.notes.append("paper: verification ~19%, correction ~28%, total ~47%")
    return result
