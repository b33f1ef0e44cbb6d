"""Extension study: SD-PCM across technology nodes (beyond the paper).

The paper evaluates 20 nm and notes WD "has become more significant at and
below 20nm" — this study projects forward: disturbance probabilities for
each node come from the calibrated thermal/Arrhenius models (Table 1's
generators), and the scheme line-up is re-simulated under those rates.

Expected shape: at 30 nm WD is mild and even basic VnC costs little; at
16 nm rates rise ~10 % relative and the LazyC+PreRead stack keeps most of
its margin, because its costs scale with *error counts* (sub-linear in p)
rather than with per-write verification (constant).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import DisturbanceConfig
from ..core import schemes
from ..core.results import geometric_mean
from ..pcm.scaling import ScalingModel
from .common import Column, ExperimentResult, grid_values

NODES_NM = (30.0, 20.0, 16.0)
DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream")
LINEUP = ("DIN", "LazyC", "LazyC+PreRead")


def _disturbance_for_node(node_nm: float) -> DisturbanceConfig:
    profile = ScalingModel().profile(node_nm)
    base = DisturbanceConfig()
    return DisturbanceConfig(
        p_bitline=profile.bitline_error_rate,
        p_wordline=profile.wordline_error_rate,
        din_residual_scale=base.din_residual_scale,
        weak_cell_fraction=base.weak_cell_fraction,
    )


def _node_columns(disturbance: DisturbanceConfig) -> List[Column]:
    """Baseline VnC and the line-up at one node's disturbance rates."""
    options = {"disturbance": disturbance}
    base = Column(None, None, schemes.baseline(), options)
    return [base] + [
        Column(None, None, schemes.by_name(name), options, over=base)
        for name in LINEUP
    ]


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
    nodes: Sequence[float] = NODES_NM,
) -> ExperimentResult:
    result = ExperimentResult(
        title="Extension: scheme speedups vs technology node "
        "(normalized to baseline VnC at each node)",
        headers=["node", "p_bitline", *LINEUP],
    )
    disturbances = [_disturbance_for_node(node) for node in nodes]
    groups = [_node_columns(disturbance) for disturbance in disturbances]
    columns = [column for group in groups for column in group]
    values = grid_values(workloads or DEFAULT_WORKLOADS, columns, length)
    gmeans = dict(zip(columns, map(geometric_mean, zip(*values))))
    for node, disturbance, (_base, *lineup) in zip(nodes, disturbances, groups):
        din, lazyc, lazyc_preread = (gmeans[column] for column in lineup)
        result.rows.append(
            [f"{node:g} nm", disturbance.p_bitline, din, lazyc, lazyc_preread]
        )
        result.metrics[f"din_{int(node)}"] = din
        result.metrics[f"lazyc_{int(node)}"] = lazyc
        result.metrics[f"p_bl_{int(node)}"] = disturbance.p_bitline
    result.notes.append(
        "disturbance probabilities derived from the calibrated node-scaling "
        "model; 20 nm reproduces Table 1 exactly"
    )
    return result
