"""Trace analysis: characterise a main-memory reference stream.

Closes the methodology loop: the synthetic generator is *parameterised* by
Table 3, and this module *measures* a trace the way the paper characterises
its PIN captures — so tests can assert that generated traces actually
exhibit the requested RPKI/WPKI, locality, and footprint, and users can
characterise imported traces before simulating them.
"""

from __future__ import annotations

from collections import Counter as Histogram
from dataclasses import dataclass
from typing import List, Sequence

from ..config import LINE_BYTES, PAGES_PER_STRIP, PAGE_BYTES
from ..errors import TraceError
from .record import TraceRecord


@dataclass(frozen=True)
class TraceProfile:
    """Measured properties of one trace."""

    references: int
    instructions: int
    rpki: float
    wpki: float
    write_fraction: float
    footprint_pages: int
    footprint_lines: int
    sequential_fraction: float
    #: Normalised entropy of the per-bank access distribution (1.0 = all
    #: 16 banks hit equally; 0.0 = a single bank takes everything).
    bank_balance: float
    #: Fraction of references that re-touch a line seen before.
    line_reuse_fraction: float

    def summary_rows(self) -> List[List[object]]:
        """Rows for :func:`repro.stats.report.format_table`."""
        return [
            ["references", self.references],
            ["instructions", self.instructions],
            ["RPKI", self.rpki],
            ["WPKI", self.wpki],
            ["write fraction", self.write_fraction],
            ["footprint (pages)", self.footprint_pages],
            ["footprint (lines)", self.footprint_lines],
            ["sequential fraction", self.sequential_fraction],
            ["bank balance", self.bank_balance],
            ["line reuse fraction", self.line_reuse_fraction],
        ]


def analyse(records: Sequence[TraceRecord]) -> TraceProfile:
    """Measure one trace (addresses interpreted as physical-contiguous)."""
    if not records:
        raise TraceError("cannot analyse an empty trace")
    instructions = sum(r.gap + 1 for r in records)
    writes = sum(1 for r in records if r.is_write)
    reads = len(records) - writes

    pages = {r.address // PAGE_BYTES for r in records}
    lines = {r.address // LINE_BYTES for r in records}

    sequential = sum(
        1
        for a, b in zip(records, records[1:])
        if b.address - a.address == LINE_BYTES
    )

    bank_hist: Histogram = Histogram(
        (r.address // PAGE_BYTES) % PAGES_PER_STRIP for r in records
    )
    bank_balance = _normalised_entropy(list(bank_hist.values()), PAGES_PER_STRIP)

    seen: set = set()
    reuses = 0
    for r in records:
        line = r.address // LINE_BYTES
        if line in seen:
            reuses += 1
        seen.add(line)

    return TraceProfile(
        references=len(records),
        instructions=instructions,
        rpki=reads * 1000.0 / instructions,
        wpki=writes * 1000.0 / instructions,
        write_fraction=writes / len(records),
        footprint_pages=len(pages),
        footprint_lines=len(lines),
        sequential_fraction=sequential / max(1, len(records) - 1),
        bank_balance=bank_balance,
        line_reuse_fraction=reuses / len(records),
    )


def _normalised_entropy(counts: List[int], bins: int) -> float:
    """Shannon entropy of a histogram normalised to [0, 1] over ``bins``."""
    import math

    total = sum(counts)
    if total == 0 or bins <= 1:
        return 0.0
    entropy = 0.0
    for count in counts:
        if count:
            p = count / total
            entropy -= p * math.log(p)
    return entropy / math.log(bins)

