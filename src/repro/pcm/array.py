"""Bit-accurate PCM cell-array storage.

The array is organised as ``banks x rows x 64 lines x 512 cells`` (Figure 6:
one device row holds one 4 KB OS page, split into 64-byte lines; each line's
eight 64-bit words live in the eight data chips).  Contents are materialised
lazily and deterministically — an untouched row reads as the seeded random
pristine image the state plane pools for it (one shared, immutable 4 KB
``bytes`` object per ``(seed, bank, row)``), so simulations are
reproducible without allocating the full 8 GB.

A line is a 512-bit Python int (bit ``i`` = cell ``i``; see
:mod:`repro.pcm.line`), sliced from the pristine row the first time
anything touches it.  Per touched line the array tracks:

* ``stored``   — the *correct* stored-domain image (post-DIN encoding),
* ``flags``    — the line's DIN per-byte inversion flags (WD-free metadata),
* ``disturbed``— mask of cells whose physical state currently deviates from
  ``stored`` due to uncorrected write disturbance (kept only while non-zero).

The physical contents of a line are ``stored | disturbed`` — disturbance
only ever flips amorphous ``0`` cells to ``1`` (partial crystallisation), so
``stored & disturbed == 0`` is a core invariant, checked in debug helpers.

:mod:`repro.core.vnc` reads and writes the ints through
:meth:`PCMArray.line_ints` and :meth:`PCMArray.commit_line`.

uTrench adjacency (Section 2.2): the bit-line neighbours of line ``l`` of
row ``r`` are line ``l`` of rows ``r - 1`` and ``r + 1`` in the same bank.
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from ..config import LINE_BYTES, LINES_PER_PAGE
from ..errors import DeviceError
from . import stateplane


class LineAddress(NamedTuple):
    """A fully resolved device line coordinate; also its ``(bank, row,
    line)`` dict key."""

    bank: int
    row: int
    line: int


Coord = Tuple[int, int, int]  # (bank, row, line); a LineAddress is one


class PCMArray:
    """Lazily materialised, deterministic PCM cell array."""

    def __init__(self, banks: int, rows_per_bank: int, seed: int = 0):
        if banks <= 0 or rows_per_bank <= 0:
            raise DeviceError("banks and rows_per_bank must be positive")
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        self._seed = seed
        #: Pristine images of the rows touched so far (pooled, never copied).
        self._pristine: Dict[Tuple[int, int], bytes] = {}
        self._stored: Dict[Coord, int] = {}
        self._disturbed: Dict[Coord, int] = {}
        self._flags: Dict[Coord, int] = {}

    # -- materialisation -----------------------------------------------------

    def _check(self, bank: int, row: int, line: int = 0) -> None:
        if not 0 <= bank < self.banks:
            raise DeviceError(f"bank {bank} out of range 0..{self.banks - 1}")
        if not 0 <= row < self.rows_per_bank:
            raise DeviceError(f"row {row} out of range 0..{self.rows_per_bank - 1}")
        if not 0 <= line < LINES_PER_PAGE:
            raise DeviceError(f"line {line} out of range 0..{LINES_PER_PAGE - 1}")

    def _materialise(self, key: Coord) -> int:
        """First touch of a line: validate it and read its pristine image.

        The image is a pure function of ``(seed, bank, row)``; the state
        plane generates it once per process and every array sharing the
        key slices the same immutable bytes.
        """
        bank, row, line = key
        self._check(bank, row, line)
        image = self._pristine.get((bank, row))
        if image is None:
            image = stateplane.PLANE.pristine_row(self._seed, bank, row)
            self._pristine[(bank, row)] = image
        start = line * LINE_BYTES
        stored = int.from_bytes(image[start:start + LINE_BYTES], "little")
        self._stored[key] = stored
        return stored

    # -- int-domain line state -----------------------------------------------

    def stored_int(self, key: Coord) -> int:
        """The correct stored-domain image of a line."""
        stored = self._stored.get(key)
        if stored is None:
            stored = self._materialise(key)
        return stored

    def line_ints(self, key: Coord) -> Tuple[int, int]:
        """``(stored, disturbed)`` of a line."""
        return self.stored_int(key), self._disturbed.get(key, 0)

    def disturbed_int(self, key: Coord) -> int:
        """Outstanding WD flips of a line."""
        self.stored_int(key)
        return self._disturbed.get(key, 0)

    def _set_disturbed(self, key: Coord, disturbed: int) -> None:
        if disturbed:
            self._disturbed[key] = disturbed
        else:
            self._disturbed.pop(key, None)

    def commit_line(
        self, key: Coord, stored: int, disturbed: int, flags: Optional[int] = None
    ) -> None:
        """Install a line's planned state (``flags`` only when rewritten)."""
        self._stored[key] = stored
        self._set_disturbed(key, disturbed)
        if flags is not None:
            self._flags[key] = flags

    def disturb_int(self, key: Coord, mask: int) -> int:
        """Apply WD flips to a line; returns the number of *new* flips.

        Only cells storing 0 can be disturbed; the caller supplies a mask
        already restricted to vulnerable cells, but the array re-masks
        defensively to preserve the ``stored & disturbed == 0`` invariant.
        """
        current = self.disturbed_int(key)
        legal = mask & ~self._stored[key]
        self._set_disturbed(key, current | legal)
        return (legal & ~current).bit_count()

    def disturbed_lines(self) -> Iterator[Tuple[LineAddress, int, int]]:
        """``(addr, stored, disturbed)`` of every line with outstanding flips."""
        for key, disturbed in self._disturbed.items():
            yield LineAddress(*key), self._stored[key], disturbed

    def line_flags(self, addr: LineAddress) -> int:
        return self._flags.get(addr, 0)

    def check_invariants(self, addr: LineAddress) -> None:
        """Raise if the line violates ``stored & disturbed == 0``."""
        stored, disturbed = self.line_ints(addr)
        if stored & disturbed:
            raise DeviceError(f"disturbed crystalline cell at {addr}")

    # -- adjacency -----------------------------------------------------------

    def bitline_neighbours(self, addr: LineAddress) -> Iterator[LineAddress]:
        """Yield the (at most two) bit-line-adjacent lines of ``addr``."""
        for direction in (-1, 1):
            row = addr.row + direction
            if 0 <= row < self.rows_per_bank:
                yield LineAddress(addr.bank, row, addr.line)
