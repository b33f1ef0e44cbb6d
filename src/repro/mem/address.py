"""Physical-address to device-coordinate mapping (Figure 6).

The OS interleaves consecutive physical page frames across the 16 banks of
the DIMM [17]: frame ``p`` lives in bank ``p mod 16``, device row
``p div 16``.  Hence:

* a *strip* is the set of 16 consecutive frames sharing one row index,
* the physically adjacent frames of frame ``p`` (bit-line neighbours of its
  row) are frames ``p - 16`` and ``p + 16``,
* a 64 B line at page offset ``l`` is bit-line-adjacent to the lines at the
  same offset ``l`` of the neighbouring rows.

(n:m)-Alloc marks strips no-use within 64 MB blocks; the strip maths for
that live in :mod:`repro.alloc.strips` — this module only maps addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..config import PAGES_PER_STRIP, PAGE_BYTES
from ..errors import DeviceError


@dataclass(frozen=True)
class AddressMapper:
    """Maps physical frame/line numbers to (bank, row, line) coordinates."""

    banks: int = PAGES_PER_STRIP
    rows_per_bank: int = (8 << 30) // PAGE_BYTES // PAGES_PER_STRIP

    def __post_init__(self) -> None:
        if self.banks != PAGES_PER_STRIP:
            # The strip layout (16 frames per strip, adjacency +/-16 frames)
            # is baked into the paper's architecture; other bank counts would
            # change the capacity maths silently.
            raise DeviceError("the Figure 6 layout requires exactly 16 banks")
        if self.rows_per_bank <= 0:
            raise DeviceError("rows_per_bank must be positive")

    @cached_property
    def total_frames(self) -> int:
        # Computed on first use, then a plain instance attribute: the
        # engine range-checks every page's first touch against it.
        return self.banks * self.rows_per_bank

    def frame_to_bank_row(self, frame: int) -> tuple[int, int]:
        """Device (bank, row) of a physical page frame."""
        if not 0 <= frame < self.total_frames:
            raise DeviceError(f"frame {frame} out of range")
        row, bank = divmod(frame, self.banks)
        return bank, row

