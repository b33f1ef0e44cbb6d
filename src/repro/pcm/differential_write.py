"""Differential write [35]: only program cells whose value actually changes.

The write driver reads the current (physical) contents of the line, compares
with the incoming data, and pulses only the differing cells: cells flipping
1 -> 0 are RESET, 0 -> 1 are SET.  This both extends lifetime and, crucially
for WD, determines *which cells are RESET* during a write: only RESET pulses
disturb neighbours (Section 2.2.1).  :mod:`repro.core.vnc` forms those masks
on the 512-bit line ints; this module prices them.

The hardware programs at most ``write_parallelism`` (128) cells per round
(Table 2); rounds containing any SET take the SET latency, RESET-only rounds
take the RESET latency.  The driver schedules RESET cells first so pure
RESET rounds stay short — this matters for correction writes, which only
RESET disturbed cells and therefore complete in a single short round.
"""

from __future__ import annotations

from ..config import TimingConfig


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
