"""Figure 1 / Section 6.1: cell sizes, capacity gain, chip-size reductions.

Paper values: 4F^2 / 8F^2 / 12F^2 cells; equal-array-area capacities
4 GB (SD-PCM) vs 2.22 GB (DIN) = 80 % gain; same-size-chip counts 8+2 vs
16+2; big-chip silicon reduction ~20 %; DIN's 33 % density gain = 15.4 %
chip-size reduction.
"""

from __future__ import annotations

from ..alloc.strips import usable_fraction
from ..pcm.geometry import (
    DIN_ENHANCED,
    PROTOTYPE,
    SUPER_DENSE,
    array_density_to_chip_reduction,
    big_chip_comparison,
    capacity_for_equal_array_area,
    chip_count_comparison,
)
from .common import ExperimentResult


def run_experiment() -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 1 / Section 6.1: density and capacity analysis",
        headers=["quantity", "value", "paper"],
    )
    rows = result.rows
    for geom, paper in ((SUPER_DENSE, 4.0), (DIN_ENHANCED, 8.0), (PROTOTYPE, 12.0)):
        rows.append([f"{geom.name} cell area (F^2)", geom.cell_area_f2, paper])
    cap = capacity_for_equal_array_area()
    rows.append(["SD-PCM capacity (GB, equal array area)", cap["sd_pcm_gb"], 4.0])
    rows.append(["DIN capacity (GB, equal array area)", cap["din_gb"], 2.22])
    rows.append(["capacity gain", cap["capacity_gain"], 0.80])
    chips = chip_count_comparison()
    rows.append(["same-size chips: DIN", chips["din_chips"], 18.0])
    rows.append(["same-size chips: SD-PCM", chips["sd_pcm_chips"], 10.0])
    rows.append(["chip-count reduction", chips["chip_reduction"], 0.38])
    big = big_chip_comparison()
    rows.append(["big-chip silicon reduction", big["size_reduction"], 0.20])
    rows.append(
        [
            "DIN 33% density gain -> chip-size reduction",
            array_density_to_chip_reduction(1.0 / 3.0),
            0.117,
        ]
    )
    rows.append(
        [
            "  same, with the paper's fraction x gain arithmetic",
            0.466 * (1.0 / 3.0),
            0.154,
        ]
    )
    # Effective usable capacity under the (n:m) allocators (Section 6.6's
    # capacity side of the tradeoff).
    for n, m in ((1, 2), (2, 3), (3, 4), (7, 8)):
        rows.append(
            [f"usable capacity under ({n}:{m})-Alloc", usable_fraction(n, m), n / m]
        )
    result.metrics["capacity_gain"] = cap["capacity_gain"]
    result.metrics["big_chip_reduction"] = big["size_reduction"]
    result.notes.append(
        "chip-count reduction: the paper quotes ~38% for 16+2 -> 8+2; the "
        "literal count ratio is 44% ((18-10)/18) — we report the computed value"
    )
    return result
