"""PCM energy accounting.

The paper motivates PCM by main-memory power (Section 1) but does not
evaluate energy; this model quantifies the energy side of the schemes from
the counters every run already collects.  Per-operation energies follow
the device literature the paper builds on (Lee et al. [14] report array
energies of roughly 2 pJ/bit reads, 13.5-19.2 pJ/bit writes at comparable
nodes; RESET is a short high-current pulse, SET a long lower-current one,
with similar per-bit energy totals):

* array read:   2.0 pJ per bit sensed (512 bits per line read),
* RESET pulse: 19.2 pJ per cell,
* SET pulse:   13.5 pJ per cell,
* ECP-chip entry programming uses the same per-cell write energies.

VnC changes the energy balance in two ways: extra reads (pre-write +
verification) and extra RESETs (corrections).  LazyCorrection trades
correction RESETs for 10-bit ECP entry writes; PreRead moves read energy
off the critical path but does not remove it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import LINE_BITS
from ..errors import ConfigError
from .counters import Counters

#: Default per-operation energies, picojoules.
READ_PJ_PER_BIT = 2.0
RESET_PJ_PER_CELL = 19.2
SET_PJ_PER_CELL = 13.5


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy parameters (pJ)."""

    read_pj_per_bit: float = READ_PJ_PER_BIT
    reset_pj_per_cell: float = RESET_PJ_PER_CELL
    set_pj_per_cell: float = SET_PJ_PER_CELL

    def __post_init__(self) -> None:
        for name in ("read_pj_per_bit", "reset_pj_per_cell", "set_pj_per_cell"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    @property
    def line_read_pj(self) -> float:
        """Energy of one 64 B line read."""
        return self.read_pj_per_bit * LINE_BITS


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of one simulation run, picojoules."""

    demand_read_pj: float
    verification_read_pj: float
    demand_write_pj: float
    correction_pj: float
    ecp_entry_pj: float

    @property
    def total_pj(self) -> float:
        return (
            self.demand_read_pj
            + self.verification_read_pj
            + self.demand_write_pj
            + self.correction_pj
            + self.ecp_entry_pj
        )

    @property
    def wd_overhead_pj(self) -> float:
        """Energy attributable to write-disturbance mitigation."""
        return self.verification_read_pj + self.correction_pj + self.ecp_entry_pj

    @property
    def wd_overhead_fraction(self) -> float:
        total = self.total_pj
        return self.wd_overhead_pj / total if total else 0.0


def energy_report(counters: Counters, model: EnergyModel | None = None) -> EnergyReport:
    """Compute the energy breakdown from run counters.

    Demand-write cell energy approximates the RESET/SET split as even
    (differential write flips ~half the changed cells each way);
    corrections are RESET-only by construction.
    """
    model = model or EnergyModel()
    line_read = model.line_read_pj
    vnc_reads = (
        counters.pre_write_reads
        + counters.prereads_issued
        + counters.preread_stale
        + counters.verify_reads
    )
    mean_write_cell = (model.reset_pj_per_cell + model.set_pj_per_cell) / 2.0
    return EnergyReport(
        demand_read_pj=counters.demand_reads * line_read,
        verification_read_pj=vnc_reads * line_read,
        demand_write_pj=counters.data_cell_writes_demand * mean_write_cell,
        correction_pj=counters.data_cell_writes_correction * model.reset_pj_per_cell,
        ecp_entry_pj=counters.ecp_cell_writes_wd * mean_write_cell,
    )
