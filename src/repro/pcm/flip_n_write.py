"""Flip-N-Write [7]: the endurance-oriented encoding baseline (Section 7).

Flip-N-Write inverts a data word whenever doing so writes fewer cells
(guaranteeing at most half the cells flip per write), extending lifetime
and write energy.  It is the natural baseline for our DIN-style encoder,
which optimises *disturbance* instead of *wear*; the comparison experiment
shows the tension: FNW minimises cells pulsed, DIN minimises vulnerable
patterns, and the weighted encoder in :mod:`repro.pcm.din` sits between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import LINE_BYTES
from .din import DINEncoder, _changed_table, invert_flagged_bytes


@dataclass(frozen=True)
class FNWResult:
    """Outcome of Flip-N-Write encoding one line write."""

    stored: int
    flags: int
    cells_written_raw: int
    cells_written_encoded: int
    vulnerable_encoded: int


class FlipNWriteEncoder:
    """Per-byte Flip-N-Write: invert iff it strictly reduces cells written.

    The flag bit itself is one extra cell per byte; following [7] the
    criterion counts it (invert only when it saves at least two data
    cells, i.e. the saving exceeds the flag cost).  Lines are 512-bit
    ints, as everywhere in :mod:`repro.pcm`.
    """

    def encode(self, physical: int, data: int) -> FNWResult:
        changed = _changed_table()
        old = np.frombuffer(physical.to_bytes(LINE_BYTES, "little"), np.uint8)
        raw = np.frombuffer(data.to_bytes(LINE_BYTES, "little"), np.uint8)
        # +1: programming the flag cell itself.
        invert = changed[old, ~raw] + 1 < changed[old, raw]
        flags = int.from_bytes(
            np.packbits(invert, bitorder="little").tobytes(), "little"
        )
        stored = invert_flagged_bytes(data, flags)
        return FNWResult(
            stored=stored,
            flags=flags,
            cells_written_raw=(physical ^ data).bit_count(),
            cells_written_encoded=(
                (physical ^ stored).bit_count() + flags.bit_count()
            ),
            vulnerable_encoded=DINEncoder.vulnerable_pairs(physical, stored),
        )

    def decode(self, stored: int, flags: int) -> int:
        return invert_flagged_bytes(stored, flags)
