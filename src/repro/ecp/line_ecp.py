"""Per-line ECP-N state machine (Section 4.2's LazyCorrection substrate).

Each 64-byte line owns N correction entries (ECP-6 by default).  Entries are
allocated with *hard errors prioritised* — a hard error may evict a buffered
WD entry (the evicted WD error must then be corrected in the array by the
caller).  WD entries are clearable: a demand write to the line rewrites all
cells, making buffered WD corrections stale, so the whole WD set is dropped.

Overflow semantics (Section 4.2): with X entries occupied before a write and
Y new WD errors detected by verification, correction is skipped iff
X + Y <= N; otherwise the caller performs a correction write, after which
all WD entries (old and new) are cleared — only hard entries persist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..errors import ECPExhaustedError
from ..pcm import line as L
from .entry import ENTRY_BITS, ECPEntry, EntryKind


@dataclass
class RecordOutcome:
    """Result of offering new WD errors to an ECP line."""

    #: True when everything fit and correction can be skipped.
    absorbed: bool
    #: Entries newly programmed (each costs ENTRY_BITS cell-writes on the
    #: ECP chip, for lifetime accounting).
    entries_written: int


@dataclass
class ECPLine:
    """ECP state of one line: up to ``capacity`` entries."""

    capacity: int
    _hard: Dict[int, int] = field(default_factory=dict)   # position -> value
    _wd: Dict[int, int] = field(default_factory=dict)     # position -> value

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")

    # -- occupancy -----------------------------------------------------------

    @property
    def hard_count(self) -> int:
        return len(self._hard)

    @property
    def wd_count(self) -> int:
        return len(self._wd)

    @property
    def occupied(self) -> int:
        return self.hard_count + self.wd_count

    @property
    def free(self) -> int:
        return self.capacity - self.occupied

    @property
    def entries(self) -> List[ECPEntry]:
        """All programmed entries, hard first (their allocation priority)."""
        out = [ECPEntry(p, v, EntryKind.HARD) for p, v in sorted(self._hard.items())]
        out += [ECPEntry(p, v, EntryKind.WD) for p, v in sorted(self._wd.items())]
        return out

    def uncovered(self, positions: List[int]) -> List[int]:
        """The ``positions`` no entry holds yet, in their given order."""
        hard, wd = self._hard, self._wd
        return [p for p in positions if p not in hard and p not in wd]

    # -- hard errors ---------------------------------------------------------

    def add_hard_error(self, position: int, value: int) -> int:
        """Register a permanent cell failure.

        Hard errors have allocation priority: if the line is full of WD
        entries, one WD entry is evicted (the caller must correct that cell
        in the array).  Raises :class:`ECPExhaustedError` when hard errors
        alone exceed capacity — the line is then unrepairable by ECP.

        Returns the evicted WD position, or -1 if nothing was evicted.
        """
        if position in self._hard:
            return -1
        if self.hard_count >= self.capacity:
            raise ECPExhaustedError(
                f"{self.hard_count} hard errors exceed ECP-{self.capacity}"
            )
        evicted = -1
        if self.free == 0:
            evicted, _ = self._wd.popitem()
        self._wd.pop(position, None)
        self._hard[position] = value
        return evicted

    # -- WD buffering (LazyCorrection) ----------------------------------------

    def would_overflow(self, new_errors: int) -> bool:
        """Section 4.2's X + Y > N test."""
        return self.occupied + new_errors > self.capacity

    def record_wd_errors(self, errors: Iterable[Tuple[int, int]]) -> RecordOutcome:
        """Buffer new WD errors ``(position, correct_value)`` if they fit.

        Either *all* offered errors are absorbed or none are (on overflow
        the hardware performs one correction write covering everything, so
        partially programming entries would be wasted ECP-chip wear).
        """
        fresh = [(p, v) for p, v in errors if p not in self._wd and p not in self._hard]
        if self.would_overflow(len(fresh)):
            return RecordOutcome(absorbed=False, entries_written=0)
        for position, value in fresh:
            self._wd[position] = value
        return RecordOutcome(absorbed=True, entries_written=len(fresh))

    def clear_wd(self) -> int:
        """Drop all buffered WD entries; returns how many were dropped.

        Called after a demand write rewrites the line, or after a correction
        write physically repairs the buffered cells.
        """
        count = len(self._wd)
        self._wd.clear()
        return count

    # -- read-path correction --------------------------------------------------

    def corrected_read(self, physical: np.ndarray) -> np.ndarray:
        """Apply all entries to a raw array read of the line."""
        if not self._hard and not self._wd:
            return physical
        data = physical.copy()
        for position, value in self._hard.items():
            L.set_bit(data, position, value)
        for position, value in self._wd.items():
            L.set_bit(data, position, value)
        return data

    def covered_mask(self) -> np.ndarray:
        """Line mask of cells currently overridden by any entry."""
        return L.mask_from_positions(list(self._hard) + list(self._wd))

    def hard_mask(self) -> np.ndarray:
        """Line mask of permanently failed (stuck-at) cells.

        Stuck cells cannot change phase, so they are immune to write
        disturbance and must be excluded from vulnerability.
        """
        return L.mask_from_positions(list(self._hard))

    # -- accounting -------------------------------------------------------------

    @staticmethod
    def entry_write_bits(entries: int) -> int:
        """ECP-chip cell writes needed to program ``entries`` entries."""
        return entries * ENTRY_BITS
