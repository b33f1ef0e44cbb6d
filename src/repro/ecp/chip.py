"""The low-density ECP chip (Section 4.2, Figure 7).

LazyCorrection must write WD pointers into the ECP region on the write path;
if the ECP chip itself were super dense those writes would suffer WD and
re-introduce cascading verification.  SD-PCM therefore keeps the ECP chip at
8F^2 (4F bit-line pitch), which is WD-free along bit-lines; its cell array
is twice the area of a data chip's for the same bit count.

This module tracks the chip-level properties the experiments need: WD
freedom, the array-area premium, and lazy ECP-line allocation for every
data line it protects.  The chip's wear for the Figure 18 lifetime study
is counted by the write path (``Counters.ecp_cell_writes_wd``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import DeviceError
from ..pcm.array import LineAddress
from ..pcm.geometry import DIN_ENHANCED, SUPER_DENSE
from .line_ecp import ECPLine


@dataclass(frozen=True)
class ECPChipGeometry:
    """Geometry facts of the low-density ECP chip."""

    #: The ECP chip uses the DIN-enhanced (8F^2) layout: WD-free bit-lines.
    cell_area_f2: float = DIN_ENHANCED.cell_area_f2

    @property
    def wd_free(self) -> bool:
        """Bit-line WD cannot occur at 4F bit-line pitch."""
        return True

    @property
    def area_premium_vs_data_chip(self) -> float:
        """Array-area multiplier vs a super dense data chip (2.0x)."""
        return self.cell_area_f2 / SUPER_DENSE.cell_area_f2


class ECPChip:
    """Lazy per-line ECP store.

    ``entries_per_line`` is the ECP-N level (6 by default).  The chip hands
    out one :class:`ECPLine` per protected data line on first touch.
    """

    def __init__(self, entries_per_line: int = 6, fault_plan=None):
        """``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) models
        per-entry wear-out: dead entries shrink a line's usable capacity at
        materialisation time, pushing LazyCorrection toward overflow and
        hard errors toward ECP exhaustion."""
        if entries_per_line < 0:
            raise DeviceError("entries_per_line must be >= 0")
        self.entries_per_line = entries_per_line
        self.fault_plan = fault_plan
        #: The lines touched so far (linked into the data lines' records).
        self.lines: Dict[LineAddress, ECPLine] = {}
        #: Entries lost to injected entry wear-out across all touched lines.
        self.dead_entries_total = 0

    def line(self, key: LineAddress) -> ECPLine:
        """The ECP state of one protected data line (materialised lazily)."""
        state = self.lines.get(key)
        if state is None:
            capacity = self.entries_per_line
            if self.fault_plan is not None:
                dead = self.fault_plan.dead_entries(key, capacity)
                capacity -= dead
                self.dead_entries_total += dead
            state = ECPLine(capacity)
            self.lines[key] = state
        return state
