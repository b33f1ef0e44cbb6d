"""Trace analysis: characterise a main-memory reference stream.

Closes the methodology loop: the synthetic generator is *parameterised* by
Table 3, and this module *measures* a trace the way the paper characterises
its PIN captures — so tests can assert that generated traces actually
exhibit the requested RPKI/WPKI, locality, and footprint, and users can
characterise imported traces before simulating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from ..config import LINE_BYTES, PAGES_PER_STRIP, PAGE_BYTES
from ..errors import TraceError
from .record import TraceArray


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


def analyse(trace: TraceArray) -> TraceProfile:
    """Measure one trace (addresses interpreted as physical-contiguous)."""
    references = len(trace)
    if not references:
        raise TraceError("cannot analyse an empty trace")
    instructions = references + int(trace.gap.sum())
    writes = int(np.count_nonzero(trace.is_write))
    reads = references - writes

    pages = trace.address // PAGE_BYTES
    lines = np.unique(trace.address // LINE_BYTES)
    sequential = int(np.count_nonzero(np.diff(trace.address) == LINE_BYTES))

    # Bank counts in order of each bank's first reference, which fixes the
    # entropy sum's float rounding.
    _, first, counts = np.unique(
        pages % PAGES_PER_STRIP, return_index=True, return_counts=True
    )
    bank_counts = counts[np.argsort(first)].tolist()

    return TraceProfile(
        references=references,
        instructions=instructions,
        rpki=reads * 1000.0 / instructions,
        wpki=writes * 1000.0 / instructions,
        write_fraction=writes / references,
        footprint_pages=len(np.unique(pages)),
        footprint_lines=len(lines),
        sequential_fraction=sequential / max(1, references - 1),
        bank_balance=_normalised_entropy(bank_counts, PAGES_PER_STRIP),
        # Every reference but the first to each line re-touches it.
        line_reuse_fraction=(references - len(lines)) / references,
    )


def _normalised_entropy(counts: List[int], bins: int) -> float:
    """Shannon entropy of non-zero ``counts``, normalised to [0, 1] over
    ``bins`` (> 1) bins."""
    total = sum(counts)
    entropy = 0.0
    for count in counts:
        p = count / total
        entropy -= p * math.log(p)
    return entropy / math.log(bins)
