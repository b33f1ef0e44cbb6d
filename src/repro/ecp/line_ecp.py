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

State is three 512-bit int masks (bit ``i`` = cell ``i``): the WD entries
(a WD error is a cell RESET by disturbance, so its correct value is always
0), the hard errors, and the hard errors' stored values.  An entry is a
9-bit cell pointer plus the 1-bit value the read path substitutes [28].
The write path (:mod:`repro.core.vnc`) changes the WD mask in place while
it samples a write op.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ECPExhaustedError


@dataclass(slots=True)
class ECPLine:
    """ECP state of one line: up to ``capacity`` entries."""

    capacity: int
    #: Cells held by hard-error entries, and the values those entries hold.
    hard: int = 0
    hard_values: int = 0
    #: Cells held by WD entries (correct value 0).
    wd: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")

    # -- occupancy -----------------------------------------------------------

    @property
    def hard_count(self) -> int:
        return self.hard.bit_count()

    @property
    def occupied(self) -> int:
        return self.hard.bit_count() + self.wd.bit_count()

    @property
    def free(self) -> int:
        return self.capacity - self.occupied

    # -- hard errors ---------------------------------------------------------

    def add_hard_error(self, position: int, value: int) -> int:
        """Register a permanent cell failure.

        Hard errors have allocation priority: if the line is full of WD
        entries, the highest WD position is evicted (the caller must
        correct that cell in the array).  Raises :class:`ECPExhaustedError`
        when hard errors alone exceed capacity — the line is then
        unrepairable by ECP.

        Returns the evicted WD position, or -1 if nothing was evicted.
        """
        bit = 1 << position
        if self.hard & bit:
            return -1
        if self.hard_count >= self.capacity:
            raise ECPExhaustedError(
                f"{self.hard_count} hard errors exceed ECP-{self.capacity}"
            )
        evicted = -1
        if self.free == 0:
            evicted = self.wd.bit_length() - 1
            self.wd ^= 1 << evicted
        self.wd &= ~bit
        self.hard |= bit
        if value:
            self.hard_values |= bit
        return evicted

    # -- WD buffering (LazyCorrection) ----------------------------------------

    def would_overflow(self, new_errors: int) -> bool:
        """Section 4.2's X + Y > N test."""
        return (self.hard.bit_count() + self.wd.bit_count() + new_errors
                > self.capacity)

    def record_wd(self, errors: int, cleared: bool = False) -> int:
        """Buffer the WD errors of mask ``errors`` if they fit.

        Either *all* offered errors are absorbed or none are (on overflow
        the hardware performs one correction write covering everything, so
        partially programming entries would be wasted ECP-chip wear).
        Cells an entry already holds cost nothing.  Once the write op in
        flight has cleared the line's WD entries (``cleared``), the entries
        it programs are counted apart from the hard ones: a cell a hard
        entry holds takes a WD entry too, which the op's commit drops.

        Returns the mask of newly programmed cells (0 when every error was
        already held), or -1 when the errors overflow the line.
        """
        fresh = errors & ~self.wd
        if not cleared:
            fresh &= ~self.hard
        if self.would_overflow(fresh.bit_count()):
            return -1
        self.wd |= fresh
        return fresh

    def clear_wd(self) -> int:
        """Drop all buffered WD entries; returns how many were dropped.

        Called after a demand write rewrites the line, or after a correction
        write physically repairs the buffered cells.
        """
        count = self.wd.bit_count()
        self.wd = 0
        return count
