"""Figure 15: sensitivity to write-queue size (LazyC+PreRead).

A larger write queue gives PreRead more chances to find a queued write
whose bank is idle.  Paper: only the memory-intensive workloads benefit
beyond 8 entries; 32 entries per bank suffice to keep LazyC+PreRead within
10 % of DIN.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core import schemes
from ..traces.profiles import WORKLOAD_ORDER
from .common import Column, ExperimentResult, grid_experiment

QUEUE_SIZES = (8, 16, 32, 64)


def _queue_columns(size: int) -> List[Column]:
    """Baseline, LazyC+PreRead and DIN at one write-queue size.

    The DIN column reads LazyC+PreRead's CPI over DIN's (``wq{s}_vs_din``):
    how far the scheme stays from the no-VnC bound.
    """
    options = {"write_queue_entries": size}
    base = Column(None, None, schemes.baseline(), options)
    lpr = Column(f"{size} entries", f"wq{size}", schemes.lazyc_preread(),
                 options, over=base)
    return [base, lpr,
            Column(None, f"wq{size}_vs_din", schemes.din(), options, over=lpr)]


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = QUEUE_SIZES,
) -> ExperimentResult:
    return grid_experiment(
        "Figure 15: LazyC+PreRead speedup over baseline vs write-queue size",
        workloads or WORKLOAD_ORDER,
        [column for size in sizes for column in _queue_columns(size)],
        length=length,
        notes=["paper: 32 entries suffice; LazyC+PreRead lands within ~10% of DIN"],
    )
