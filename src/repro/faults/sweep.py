"""The ``repro faults sweep`` experiment: scheme line-up under injected faults.

Runs each scheme of the SD-PCM comparison over one workload at one or more
fault intensities and reports the end-to-end reliability outcome: how many
stuck cells / dead ECP entries were injected, how much of the protection
machinery fired (drift flips detected, LazyCorrection overflows, exhausted
ECP lines), and the bottom line — uncorrectable bits per demand write.

Cells go through the ordinary :mod:`repro.perf` engine, so fault sweeps are
cached, deduplicated, and parallelised exactly like the paper figures; the
``FaultConfig`` is part of the cell hash, so faulty and fault-free results
never collide.
"""

from __future__ import annotations

from typing import Dict, List

from ..config import FaultConfig, SchemeConfig
from ..core import schemes
from ..experiments.common import ExperimentResult, cell, run_cells

#: The line-up compared under faults.  DIN's 8F^2 chip dodges bit-line WD
#: but not wear-out, so it anchors the stuck-cell-only baseline.
SWEEP_SCHEMES: Dict[str, SchemeConfig] = {
    "DIN": schemes.din(),
    "baseline": schemes.baseline(),
    "LazyC": schemes.lazyc(),
    "LazyC+PreRead": schemes.lazyc_preread(),
}

#: Named fault intensities.  ``stress`` is calibrated so Poisson stuck-cell
#: counts routinely exceed ECP-6 capacity (exercising ECPExhaustedError)
#: and drift pressure routinely overflows LazyCorrection.
PROFILES: Dict[str, FaultConfig] = {
    "light": FaultConfig(
        enabled=True,
        stuck_cells_per_line=0.5,
        drift_flip_prob=0.002,
        ecp_entry_failure_prob=0.02,
    ),
    "stress": FaultConfig(
        enabled=True,
        stuck_cells_per_line=8.0,
        drift_flip_prob=0.02,
        ecp_entry_failure_prob=0.3,
    ),
}


def run_sweep(
    bench: str = "mcf",
    profile: str = "stress",
    length: int | None = None,
    cores: int | None = None,
    seed: int = 1,
    fault_seed: int = 3,
) -> ExperimentResult:
    """Run the scheme line-up under one fault profile; returns the table."""
    if profile not in PROFILES:
        raise ValueError(
            f"unknown fault profile {profile!r}; known: {sorted(PROFILES)}"
        )
    import dataclasses

    faults = dataclasses.replace(PROFILES[profile], seed=fault_seed)
    names = list(SWEEP_SCHEMES)
    specs = [
        cell(
            bench,
            SWEEP_SCHEMES[name],
            length=length,
            cores=cores,
            seed=seed,
            faults=faults,
        )
        for name in names
    ]
    results = run_cells(specs)

    result = ExperimentResult(
        title=(
            f"fault sweep: {bench}, profile={profile} "
            f"(stuck/line={faults.stuck_cells_per_line}, "
            f"drift p={faults.drift_flip_prob}, "
            f"ECP-entry fail p={faults.ecp_entry_failure_prob}, "
            f"fault seed={fault_seed})"
        ),
        headers=[
            "scheme",
            "writes",
            "stuck cells",
            "dead ECP",
            "drift flips",
            "ECP overflows",
            "exhausted lines",
            "uncorrectable bits",
            "uncorr/write",
        ],
    )
    exhausted_total = 0
    for name, res in zip(names, results):
        c = res.counters
        exhausted_total += c.ecp_exhausted_lines
        result.rows.append(
            [
                name,
                c.demand_writes,
                c.fault_stuck_cells,
                c.fault_dead_ecp_entries,
                c.drift_flips,
                c.ecp_overflows,
                c.ecp_exhausted_lines,
                c.uncorrectable_bits,
                round(c.uncorrectable_bit_rate, 4),
            ]
        )
    result.metrics["exhausted_lines_total"] = float(exhausted_total)
    result.metrics["max_uncorrectable_rate"] = max(
        (r.counters.uncorrectable_bit_rate for r in results), default=0.0
    )
    result.notes.append(
        "uncorr/write = stuck bits no ECP entry covers that disagree with "
        "the written data, per demand write; DIN rows isolate wear-out "
        "(no bit-line WD, no verification)"
    )
    return result


def sweep_rows(profiles: List[str] | None = None, **kwargs) -> List[ExperimentResult]:
    """One :func:`run_sweep` table per requested profile."""
    return [run_sweep(profile=p, **kwargs) for p in (profiles or list(PROFILES))]
