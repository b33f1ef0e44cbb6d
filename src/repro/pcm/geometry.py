"""Cell-array geometry: cell sizes, capacities, and chip-size arithmetic.

Implements Figure 1 and the Section 6.1 capacity analysis:

* ideal super dense cell (SD-PCM): 2F x 2F pitch -> 4F^2
* DIN-enhanced chip: 2F along word-lines, 4F along bit-lines -> 8F^2
* WD-free prototype chip [8]: 3F x 4F -> 12F^2
* cell arrays occupy 46.6 % of prototype chip area [8]

Capacity comparisons normalise total cell-array silicon: SD-PCM spends some
array area on a low-density (8F^2) ECP chip, DIN spends array area on *all*
chips at 8F^2.  With one ECP chip per eight data chips this yields the
paper's numbers: 4 GB (SD-PCM) vs 2.22 GB (DIN) for equal array area, an
80 % capacity gain, and 38 % / 20 % chip-size reductions depending on the
chip-sizing strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

#: Fraction of total prototype-chip area occupied by cell arrays [8].
CELL_ARRAY_AREA_FRACTION = 0.466

#: Data chips per rank (Figure 6: x72 bus = 8 data + 1 ECP chip).
DATA_CHIPS = 8
#: ECP chips per rank.
ECP_CHIPS = 1


@dataclass(frozen=True)
class CellGeometry:
    """A cell layout described by its word-line and bit-line pitches (in F)."""

    name: str
    wordline_pitch_f: float
    bitline_pitch_f: float

    def __post_init__(self) -> None:
        if self.wordline_pitch_f < 2.0 or self.bitline_pitch_f < 2.0:
            raise ConfigError("pitch below 2F would overlap cells")

    @property
    def cell_area_f2(self) -> float:
        """Cell footprint in units of F^2."""
        return self.wordline_pitch_f * self.bitline_pitch_f

    def density_vs(self, other: "CellGeometry") -> float:
        """Density of this layout relative to ``other`` (>1 = denser)."""
        return other.cell_area_f2 / self.cell_area_f2


#: Ideal super dense layout enabled by SD-PCM (Figure 1a).
SUPER_DENSE = CellGeometry("super-dense", 2.0, 2.0)
#: DIN-enhanced layout: minimal word-line pitch, 4F bit-line pitch (Fig. 1c).
DIN_ENHANCED = CellGeometry("din-enhanced", 2.0, 4.0)
#: WD-free prototype layout [8] (Figure 1b).
PROTOTYPE = CellGeometry("prototype", 3.0, 4.0)


def capacity_for_equal_array_area(
    data_gb_super_dense: float = 4.0,
) -> dict[str, float]:
    """Section 6.1's equal-cell-array-area capacity comparison.

    SD-PCM: 8 data chips at 4F^2 + 1 ECP chip at 8F^2 (LazyCorrection needs a
    low-density ECP array, twice the area of a data chip's array).
    DIN: 8+1 chips all at 8F^2.

    For a fixed total array-area budget, returns usable *data* capacity (GB)
    under each design and the relative gain.  With the paper's default the
    budget is what SD-PCM needs for 4 GB of data.
    """
    if data_gb_super_dense <= 0:
        raise ConfigError("capacity must be positive")
    # Area units: one super-dense data chip's array area == 1.
    # SD-PCM: 8 data arrays (1 each) + 1 ECP array at double density cost (2).
    sd_area = DATA_CHIPS * 1.0 + ECP_CHIPS * 2.0
    # DIN stores the same bits at 8F^2: a data array of equal capacity costs 2.
    # Let DIN capacity (in super-dense-chip units) be c; DIN spends 2c on data
    # plus ECP in proportion 1/8 of data, also at 8F^2: 2c/8.
    # Solve 2c + c/4 = sd_area.
    din_capacity_units = sd_area / 2.25
    sd_gb = data_gb_super_dense
    din_gb = data_gb_super_dense * din_capacity_units / DATA_CHIPS
    return {
        "sd_pcm_gb": sd_gb,
        "din_gb": din_gb,
        "capacity_gain": (sd_gb - din_gb) / din_gb,
    }


def chip_count_comparison() -> dict[str, float]:
    """Section 6.1's same-size-chips comparison.

    Using identical chips, 4 GB needs 16+2 chips under DIN (half-density)
    but 8+2 under SD-PCM (dense data chips + two chips' worth of low-density
    ECP array).  Returns chip counts and the resulting size reduction.
    """
    din_chips = 2 * DATA_CHIPS + 2 * ECP_CHIPS
    sd_chips = DATA_CHIPS + 2 * ECP_CHIPS
    return {
        "din_chips": float(din_chips),
        "sd_pcm_chips": float(sd_chips),
        "chip_reduction": (din_chips - sd_chips) / din_chips,
    }


def big_chip_comparison() -> dict[str, float]:
    """Section 6.1's big-chip comparison.

    DIN builds 4 GB from 8+1 "big" (double-array) chips; SD-PCM uses 8 small
    data chips plus 1 big ECP chip.  A small chip is 23 % smaller than a big
    one because only the array (46.6 % of chip area [8]) shrinks by half.
    Returns the approximate total-silicon reduction (paper: ~20 %).
    """
    # Big chip area = 1. Halving the array halves 46.6% of the area.
    small_chip_area = 1.0 - CELL_ARRAY_AREA_FRACTION / 2.0
    din_area = (DATA_CHIPS + ECP_CHIPS) * 1.0
    sd_area = DATA_CHIPS * small_chip_area + ECP_CHIPS * 1.0
    return {
        "small_chip_area": small_chip_area,
        "din_area": din_area,
        "sd_pcm_area": sd_area,
        "size_reduction": (din_area - sd_area) / din_area,
    }


def array_density_to_chip_reduction(density_gain: float) -> float:
    """Convert a cell-array density gain into a whole-chip size reduction.

    Section 3.1: DIN's 33 % array-density improvement is a 15.4 % chip-size
    reduction because arrays are 46.6 % of chip area.  For a density gain g,
    the array shrinks to 1/(1+g) of its size for equal capacity.
    """
    if density_gain <= -1.0:
        raise ConfigError("density gain must be > -1")
    array_scale = 1.0 / (1.0 + density_gain)
    return CELL_ARRAY_AREA_FRACTION * (1.0 - array_scale)
