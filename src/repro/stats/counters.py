"""Event counters collected during a simulation run.

One :class:`Counters` instance is shared by the controller, the VnC engine,
and the schemes; every experiment reads its results from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class Counters:
    """Flat counter set; all fields default to zero."""

    # -- request traffic ------------------------------------------------------
    demand_reads: int = 0
    demand_writes: int = 0
    wq_forwarded_reads: int = 0
    wq_full_stalls: int = 0
    drains: int = 0

    # -- VnC machinery --------------------------------------------------------
    pre_write_reads: int = 0
    prereads_issued: int = 0
    preread_hits: int = 0
    preread_stale: int = 0
    preread_forwards: int = 0
    verify_reads: int = 0
    verifications: int = 0
    corrections: int = 0
    cascade_corrections: int = 0
    cascade_depth_max: int = 0
    #: Cascades cut off at the safety depth cap (stress configs only).
    cascade_truncations: int = 0

    # -- disturbance ----------------------------------------------------------
    bitline_vulnerable_cells: int = 0
    bitline_errors: int = 0
    wordline_vulnerable_cells: int = 0
    wordline_errors: int = 0
    max_errors_one_adjacent_line: int = 0
    max_errors_wordline: int = 0

    # -- LazyCorrection / ECP -------------------------------------------------
    ecp_absorbed_errors: int = 0
    ecp_entries_programmed: int = 0
    ecp_overflows: int = 0
    ecp_cleared_by_write: int = 0

    # -- injected faults (repro.faults) -----------------------------------------
    #: Stuck-at cells seeded into touched lines by the fault plan.
    fault_stuck_cells: int = 0
    #: ECP entries lost to injected entry wear-out.
    fault_dead_ecp_entries: int = 0
    #: Resistance-drift flips surfaced at write-time verification.
    drift_flips: int = 0
    #: Lines whose hard errors exceeded ECP capacity (ECPExhaustedError
    #: absorbed: the line degrades to partial coverage).
    ecp_exhausted_lines: int = 0
    #: Stuck cells left without an ECP entry — permanently wrong bits.
    uncorrectable_bits: int = 0

    # -- write cancellation -----------------------------------------------------
    writes_cancelled: int = 0
    prereads_cancelled: int = 0
    writes_paused: int = 0
    #: WD errors injected by the already-pulsed cells of cancelled writes;
    #: detected by the retry's verification (Section 6.8).
    partial_write_errors: int = 0

    # -- wear (lifetime studies) ------------------------------------------------
    data_cell_writes_demand: int = 0
    data_cell_writes_correction: int = 0
    ecp_cell_writes_background: int = 0
    ecp_cell_writes_wd: int = 0

    # -- timing ------------------------------------------------------------------
    total_write_busy_cycles: int = 0
    total_read_busy_cycles: int = 0
    total_preread_busy_cycles: int = 0

    # -- distributions -------------------------------------------------------------
    errors_per_adjacent_line_hist: Dict[int, int] = field(default_factory=dict)
    errors_per_wordline_hist: Dict[int, int] = field(default_factory=dict)

    # -- derived metrics --------------------------------------------------------

    @property
    def corrections_per_write(self) -> float:
        """Figure 12's metric: first-level correction ops per demand write.

        Cascade-triggered corrections are tracked separately in
        ``cascade_corrections``; with the paper's ~2 errors per adjacent
        line, 2 x P(>=1 error) gives its quoted 1.8 corrections per write.
        """
        if self.demand_writes == 0:
            return 0.0
        return self.corrections / self.demand_writes

    @property
    def avg_errors_per_adjacent_line(self) -> float:
        """Figure 4(b)'s average: WD errors per adjacent line per write."""
        samples = sum(self.errors_per_adjacent_line_hist.values())
        if samples == 0:
            return 0.0
        total = sum(k * v for k, v in self.errors_per_adjacent_line_hist.items())
        return total / samples

    @property
    def avg_errors_wordline(self) -> float:
        """Figure 4(a)'s average: same-word-line WD errors per write."""
        samples = sum(self.errors_per_wordline_hist.values())
        if samples == 0:
            return 0.0
        total = sum(k * v for k, v in self.errors_per_wordline_hist.items())
        return total / samples

    @property
    def data_chip_lifetime(self) -> float:
        """Figure 17's normalised data-chip lifetime."""
        demand = self.data_cell_writes_demand
        total = demand + self.data_cell_writes_correction
        return 1.0 if total == 0 or demand == 0 else demand / total

    @property
    def uncorrectable_bit_rate(self) -> float:
        """Uncorrectable bits per demand line write (fault sweeps' metric)."""
        if self.demand_writes == 0:
            return 0.0
        return self.uncorrectable_bits / self.demand_writes

    #: Without WD, the ECP chip sees ~10x fewer cell changes than the data
    #: chips for the same write stream (Section 6.7); the background counter
    #: accumulates raw data-chip cell changes and is scaled here.
    ECP_BACKGROUND_DIVISOR = 10.0

    @property
    def ecp_chip_lifetime(self) -> float:
        """Figure 18's normalised ECP-chip lifetime."""
        base = self.ecp_cell_writes_background / self.ECP_BACKGROUND_DIVISOR
        total = base + self.ecp_cell_writes_wd
        return 1.0 if total == 0 or base == 0 else base / total
