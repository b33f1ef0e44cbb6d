"""Bit-accurate PCM cell-array storage.

The array is organised as ``banks x rows x 64 lines x 512 cells`` (Figure 6:
one device row holds one 4 KB OS page, split into 64-byte lines; each line's
eight 64-bit words live in the eight data chips).  Contents are materialised
lazily and deterministically — an untouched line reads as its line of the
seeded random pristine image of its row, ``(seed, bank, row)``, so
simulations are reproducible without allocating the full 8 GB.

A line is a 512-bit Python int (bit ``i`` = cell ``i``; see
:mod:`repro.pcm.line`), drawn from its row's pristine stream (opened once
per row through the state plane) the first time anything touches it; no
row image is held.  Each touched line has one :class:`LineRecord` in
:attr:`PCMArray.lines`, holding:

* ``stored``   — the *correct* stored-domain image (post-DIN encoding),
* ``disturbed``— mask of cells whose physical state currently deviates from
  ``stored`` due to uncorrected write disturbance,
* ``flags``    — the line's DIN per-byte inversion flags (WD-free metadata),
* the write path's per-line memo (:mod:`repro.core.vnc`): weak-cell mask,
  ECP line, cells its WD entries ever held, flip pool and PreRead epoch.

The physical contents of a line are ``stored | disturbed`` — disturbance
only ever flips amorphous ``0`` cells to ``1`` (partial crystallisation), so
``stored & disturbed == 0`` is a core invariant, checked in debug helpers.

uTrench adjacency (Section 2.2): the bit-line neighbours of line ``l`` of
row ``r`` are line ``l`` of rows ``r - 1`` and ``r + 1`` in the same bank.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..config import LINES_PER_PAGE
from ..errors import DeviceError
from . import stateplane


#: A fully resolved device line coordinate ``(bank, row, line)``, and the
#: dict key of every per-line state (array, ECP chip, write queues, VnC).
#: A plain tuple: the replay builds one per reference.
LineAddress = Tuple[int, int, int]


class LineRecord:
    """The state of one touched line (see the module docstring).  ``weak``,
    ``ecp`` and ``pool`` stay ``None`` until the write path needs them; no
    record refers back to its array, so reference counting frees a cell."""

    __slots__ = ("stored", "disturbed", "flags", "weak", "ecp", "seen",
                 "pool", "epoch")

    def __init__(self, stored: int) -> None:
        self.stored = stored
        self.disturbed = 0
        self.flags = 0
        self.weak: Optional[int] = None
        self.ecp = None
        self.seen = 0
        self.pool: Optional[List[int]] = None
        self.epoch = 0


class PCMArray:
    """Lazily materialised, deterministic PCM cell array."""

    def __init__(self, banks: int, rows_per_bank: int, seed: int = 0):
        if banks <= 0 or rows_per_bank <= 0:
            raise DeviceError("banks and rows_per_bank must be positive")
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        self._seed = seed
        #: The pristine streams of the rows touched so far, by ``(bank, row)``.
        self._streams: Dict[Tuple[int, int], Callable[[int], int]] = {}
        #: The records of the lines touched so far; the write path probes
        #: it directly (:meth:`materialise` fills a miss).
        self.lines: Dict[LineAddress, LineRecord] = {}

    # -- line records --------------------------------------------------------

    def materialise(self, key: LineAddress) -> LineRecord:
        """First touch of a line: validate it and record its pristine image
        (drawn from its row's stream, which the first touch opens)."""
        bank, row, line = key
        draw = self._streams.get((bank, row))
        # A row's stream is opened checked: a known row checks the line only.
        if draw is None or not 0 <= line < LINES_PER_PAGE:
            if not (0 <= bank < self.banks and 0 <= row < self.rows_per_bank
                    and 0 <= line < LINES_PER_PAGE):
                raise DeviceError(
                    f"line {key} out of range: {self.banks} banks x "
                    f"{self.rows_per_bank} rows x {LINES_PER_PAGE} lines"
                )
            draw = self._streams[bank, row] = stateplane.PLANE.pristine_row(
                self._seed, bank, row
            )
        record = self.lines[key] = LineRecord(draw(line))
        return record

    def line(self, key: LineAddress) -> LineRecord:
        """The record of a line (materialised on first touch)."""
        record = self.lines.get(key)
        if record is None:
            record = self.materialise(key)
        return record

    def disturb_int(self, key: LineAddress, mask: int) -> int:
        """Apply WD flips to a line; returns the number of *new* flips.

        Only cells storing 0 can be disturbed; the caller supplies a mask
        already restricted to vulnerable cells, but the array re-masks
        defensively to preserve the ``stored & disturbed == 0`` invariant.
        """
        record = self.line(key)
        current = record.disturbed
        legal = mask & ~record.stored
        record.disturbed = current | legal
        return (legal & ~current).bit_count()

    def disturbed_lines(self) -> Iterator[Tuple[LineAddress, int, int]]:
        """``(addr, stored, disturbed)`` of every line with outstanding flips."""
        for key, record in self.lines.items():
            if record.disturbed:
                yield key, record.stored, record.disturbed

    def check_invariants(self, addr: LineAddress) -> None:
        """Raise if the line violates ``stored & disturbed == 0``."""
        record = self.line(addr)
        if record.stored & record.disturbed:
            raise DeviceError(f"disturbed crystalline cell at {addr}")

    # -- adjacency -----------------------------------------------------------

    def bitline_neighbours(self, addr: LineAddress) -> Iterator[LineAddress]:
        """Yield the (at most two) bit-line-adjacent lines of ``addr``."""
        bank, row, line = addr
        for neighbour in (row - 1, row + 1):
            if 0 <= neighbour < self.rows_per_bank:
                yield bank, neighbour, line
