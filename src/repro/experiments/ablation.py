"""Ablation studies for SD-PCM's design choices (beyond the paper's figures).

DESIGN.md calls out three load-bearing design decisions; each is ablated
here against the corresponding naive alternative:

1. **Low-density ECP chip** (Section 4.2): LazyCorrection with a WD-free
   8F^2 ECP chip vs a naive super dense ECP chip whose entry writes need
   their own VnC pass.
2. **Read-priority policy**: bursty drains (the paper's default) vs write
   cancellation [22] vs write pausing [22] on top of LazyC.
3. **DIN word-line encoding**: residual word-line errors with the encoder
   active vs disabled (all vulnerable patterns exposed).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import DisturbanceConfig
from ..core import schemes
from .common import Column, ExperimentResult, grid_experiment

DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream")


def run_ecp_density_ablation(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Low-density vs super dense ECP chip under LazyCorrection."""
    base = Column(None, None, schemes.baseline())
    return grid_experiment(
        "Ablation: ECP chip density under LazyC (speedup over baseline)",
        workloads or DEFAULT_WORKLOADS,
        [
            base,
            Column("low-density ECP (SD-PCM)", "low_density", schemes.lazyc(),
                   over=base),
            Column("super dense ECP (naive)", "dense", schemes.lazyc_dense_ecp(),
                   over=base),
        ],
        length=length,
        notes=["Section 4.2: buffering WD errors only pays off when the ECP chip "
               "itself is WD-free"],
    )


def run_read_priority_ablation(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Bursty drains vs write cancellation vs write pausing, over LazyC."""
    base = Column(None, None, schemes.baseline())
    columns = [base] + [
        Column(header, name, schemes.by_name(name), over=base)
        for header, name in (("LazyC (bursty)", "LazyC"),
                             ("WC+LazyC", "WC+LazyC"),
                             ("WP+LazyC", "WP+LazyC"))
    ]
    return grid_experiment(
        "Ablation: read-priority policy over LazyC (speedup over baseline)",
        workloads or DEFAULT_WORKLOADS,
        columns,
        length=length,
        notes=["pausing loses no programmed work on pre-emption, so it should "
               "match or beat cancellation under VnC-lengthened writes"],
    )


def run_din_ablation(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Word-line error rates with the DIN encoder active vs disabled."""
    no_din = {"disturbance": DisturbanceConfig(din_residual_scale=1.0)}
    columns = [
        Column(header, key, schemes.baseline(), options,
               value=lambda c: c.avg_errors_wordline)
        for header, key, options in (("with DIN", "with_din", {}),
                                     ("without DIN", "without_din", no_din))
    ]
    return grid_experiment(
        "Ablation: DIN word-line encoding (residual WL errors per write)",
        workloads or DEFAULT_WORKLOADS,
        columns,
        summary="mean",
        length=length,
        notes=["the paper inherits DIN [10] precisely because unencoded "
               "word-lines would add several errors per write"],
    )


def run_weak_cell_ablation(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    fractions: Sequence[float] = (0.1, 0.25, 0.5, 1.0),
) -> ExperimentResult:
    """Robustness of our process-variation assumption.

    ``weak_cell_fraction`` concentrates disturbance on a per-line subset of
    cells while preserving Table 1's mean rate; Figure 4's error counts
    must therefore be insensitive to it.  (What it *does* change is how
    quickly ECP entry positions repeat — see EXPERIMENTS.md D2.)
    """
    columns = [
        Column(f"f={f:g}", f"f{f:g}", schemes.baseline(),
               {"disturbance": DisturbanceConfig(weak_cell_fraction=f)},
               value=lambda c: c.avg_errors_per_adjacent_line)
        for f in fractions
    ]
    return grid_experiment(
        "Ablation: weak-cell fraction (WD errors per adjacent line)",
        workloads or DEFAULT_WORKLOADS,
        columns,
        summary="mean",
        length=length,
        notes=["mean error rate is preserved by construction "
               "(p_weak = p / fraction); only the per-line position pool changes"],
    )
