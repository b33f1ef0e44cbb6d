"""Differential write [35]: only program cells whose value actually changes.

The write driver reads the current (physical) contents of the line, compares
with the incoming data, and pulses only the differing cells.  This both
extends lifetime and, crucially for WD, determines *which cells are RESET*
during a write: only RESET pulses disturb neighbours (Section 2.2.1).

The hardware programs at most ``write_parallelism`` (128) cells per round
(Table 2); rounds containing any SET take the SET latency, RESET-only rounds
take the RESET latency.  The driver schedules RESET cells first so pure
RESET rounds stay short — this matters for correction writes, which only
RESET disturbed cells and therefore complete in a single short round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import TimingConfig
from . import line as L


@dataclass(frozen=True)
class WritePlan:
    """The outcome of planning a differential write.

    ``reset_mask``/``set_mask`` are line masks of the cells pulsed; only
    ``reset_mask`` participates in disturbance.  ``latency_cycles`` accounts
    for programming rounds under the 128-cell parallelism limit.
    """

    reset_mask: np.ndarray
    set_mask: np.ndarray
    reset_bits: int
    set_bits: int
    latency_cycles: int

    @property
    def changed_bits(self) -> int:
        return self.reset_bits + self.set_bits

    @property
    def is_silent(self) -> bool:
        """True when no cell needs programming (data already present)."""
        return self.changed_bits == 0


def plan_write(
    physical: np.ndarray,
    new_data: np.ndarray,
    timing: TimingConfig,
) -> WritePlan:
    """Plan a differential write of ``new_data`` over ``physical`` contents.

    Cells equal in both are untouched.  Cells flipping 1 -> 0 are RESET;
    0 -> 1 are SET.  Even a "silent" write (no changed cells) occupies the
    array for one RESET slot for the internal read-compare.
    """
    changed = physical ^ new_data
    reset_mask = (changed & ~new_data).astype(L.WORD_DTYPE)
    set_mask = (changed & new_data).astype(L.WORD_DTYPE)
    reset_bits = L.popcount(reset_mask)
    set_bits = L.popcount(set_mask)
    latency = rounds_latency(reset_bits, set_bits, timing)
    return WritePlan(
        reset_mask=reset_mask,
        set_mask=set_mask,
        reset_bits=reset_bits,
        set_bits=set_bits,
        latency_cycles=latency,
    )


def rounds_latency(reset_bits: int, set_bits: int, timing: TimingConfig) -> int:
    """Programming latency for a given RESET/SET cell mix.

    RESET cells are packed into leading rounds of up to ``write_parallelism``
    cells; leftover capacity in the last RESET round is filled with SET
    cells, which promotes that round to SET latency; remaining SET cells get
    their own rounds.
    """
    par = timing.write_parallelism
    if reset_bits == 0 and set_bits == 0:
        # Internal read-compare still occupies the array briefly.
        return timing.reset_cycles
    full_reset_rounds = reset_bits // par
    leftover_reset = reset_bits - full_reset_rounds * par
    latency = full_reset_rounds * timing.reset_cycles
    if leftover_reset:
        room = par - leftover_reset
        absorbed = min(room, set_bits)
        set_bits -= absorbed
        latency += timing.set_cycles if absorbed else timing.reset_cycles
    if set_bits:
        set_rounds = -(-set_bits // par)  # ceil division
        latency += set_rounds * timing.set_cycles
    return latency


def correction_latency(error_bits: int, timing: TimingConfig) -> int:
    """Latency of a correction write (RESET-only: disturbed cells read 1)."""
    return rounds_latency(error_bits, 0, timing)
