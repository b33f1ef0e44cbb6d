"""Word-line disturbance-aware data encoding (DIN [10] substitute).

DIN encodes written data so that WD-vulnerable patterns — a cell being RESET
horizontally adjacent to an idle amorphous (``0``) cell — are minimised
along word-lines.  The full DIN design uses multi-bit disturbance-free
codes; we implement the same idea with a per-byte inversion code (one flag
bit per stored byte, cf. Flip-N-Write [7]) chosen, per write, to minimise
the number of vulnerable pairs the write creates given the line's current
physical contents.

The measured suppression of our encoder plus the paper-calibrated residual
scale (``DisturbanceConfig.din_residual_scale``, standing in for DIN's
stronger codes) reproduces the paper's Figure 4(a) residual of ~0.4
word-line errors per line write.

Encoding is a bijection: ``decode(encode(data)) == data``.  Flag bits are
stored in the line's metadata region, which (like DIN's code bits) is
engineered WD-free, so flags are never disturbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..config import LINE_BYTES
from . import line as L

_BYTE = np.uint8(0xFF)


@lru_cache(maxsize=1)
def _vulnerability_table() -> np.ndarray:
    """``table[old, new]`` = vulnerable word-line pairs created by storing
    byte ``new`` over physical byte ``old``.

    A pair is vulnerable when a RESET cell (1 -> 0 transition) sits next to
    an idle cell whose stored value is 0.  Computed for all 65 536 byte
    pairs once; the encoder then works via table lookups.
    """
    old = np.arange(256, dtype=np.uint16)[:, None]
    new = np.arange(256, dtype=np.uint16)[None, :]
    changed = old ^ new
    reset = changed & ~new & 0xFF
    idle = ~changed & 0xFF
    neighbours = ((reset << 1) | (reset >> 1)) & 0xFF
    vulnerable = neighbours & idle & (~old & 0xFF)
    # popcount of a uint16 array via the 8-bit split
    counts = np.zeros_like(vulnerable, dtype=np.uint8)
    for shift in range(8):
        counts += ((vulnerable >> shift) & 1).astype(np.uint8)
    return counts


@lru_cache(maxsize=1)
def _changed_table() -> np.ndarray:
    """``table[old, new]`` = cells pulsed when storing ``new`` over ``old``."""
    old = np.arange(256, dtype=np.uint16)[:, None]
    new = np.arange(256, dtype=np.uint16)[None, :]
    changed = (old ^ new) & 0xFF
    counts = np.zeros_like(changed, dtype=np.uint8)
    for shift in range(8):
        counts += ((changed >> shift) & 1).astype(np.uint8)
    return counts


#: Relative weight of one vulnerable pair against one extra pulsed cell in
#: the encoder's cost function.  Inverting a byte avoids disturbance risk
#: but costs extra programming (wear + possibly a SET round), so the
#: encoder only inverts when the vulnerability win justifies the writes —
#: like Flip-N-Write's criterion, biased toward disturbance avoidance.
VULNERABILITY_WEIGHT = 4


@lru_cache(maxsize=1)
def _invert_table() -> np.ndarray:
    """``table[old, raw]`` = 1 when the encoder inverts byte ``raw`` written
    over physical byte ``old``.

    Precomputing the per-byte cost comparison collapses the encoder's six
    table gathers and two comparisons to a single gather per write.
    """
    vuln = _vulnerability_table()
    writes = _changed_table()
    raw = np.arange(256, dtype=np.uint16)[None, :]
    inverted = (~raw & 0xFF).astype(np.intp)
    rows = np.arange(256)[:, None]
    cost_raw = (
        VULNERABILITY_WEIGHT * vuln.astype(np.int32) + writes
    )
    cost_inv = cost_raw[rows, inverted]
    return (cost_inv < cost_raw).astype(np.uint8)


@lru_cache(maxsize=1)
def _stored_table() -> np.ndarray:
    """``table[old, raw]`` = the stored-domain byte the encoder emits."""
    raw = np.arange(256, dtype=np.uint8)[None, :]
    invert = _invert_table()
    return np.where(invert, ~raw, raw).astype(np.uint8)


@lru_cache(maxsize=1)
def _flag_expand_table() -> np.ndarray:
    """``table[flag_byte]`` = 64-bit mask with ``0xFF`` per set flag bit.

    Expands one byte of per-byte inversion flags into the XOR mask that
    undoes (or applies) the inversion over the corresponding 8 data bytes.
    """
    flag = np.arange(256, dtype=np.uint64)
    out = np.zeros(256, dtype=np.uint64)
    for bit in range(8):
        out |= ((flag >> np.uint64(bit)) & np.uint64(1)) * np.uint64(
            0xFF << (8 * bit)
        )
    return out


@lru_cache(maxsize=1)
def din_tables() -> "tuple[np.ndarray, np.ndarray]":
    """The encoder's ``(stored, invert)`` LUTs for native kernels.

    C-contiguous ``(256, 256)`` uint8 arrays indexed ``[old, raw]`` —
    the exact tables :meth:`DINEncoder.encode_stored_int` gathers from,
    cached so every backend shares one
    pair of buffers whose addresses stay valid for the process lifetime.
    """
    return (
        np.ascontiguousarray(_stored_table()),
        np.ascontiguousarray(_invert_table()),
    )


@dataclass(frozen=True)
class EncodedWrite:
    """Result of encoding one line write."""

    #: Stored-domain bytes to write (after per-byte inversion).
    stored: np.ndarray
    #: One flag bit per byte; bit ``i`` set means byte ``i`` is inverted.
    flags: int
    #: Vulnerable pairs with and without encoding (for effectiveness stats).
    vulnerable_encoded: int
    vulnerable_raw: int


class DINEncoder:
    """Per-byte inversion encoder minimising word-line-vulnerable patterns."""

    def encode(self, physical: np.ndarray, data: np.ndarray) -> EncodedWrite:
        """Choose per-byte inversions for writing ``data`` over ``physical``.

        ``physical`` and ``data`` are line arrays (8 x uint64).  Returns the
        stored-domain image and the flag word.  The choice is greedy and
        per-byte: adjacency across byte boundaries is not re-evaluated,
        matching the hardware's parallel per-byte encoders.
        """
        vuln = _vulnerability_table()
        old = physical.view(np.uint8)
        raw = data.view(np.uint8)
        invert = _invert_table()[old, raw]
        stored_bytes = _stored_table()[old, raw]
        flags = int(np.packbits(invert, bitorder="little").view(np.uint64)[0])
        return EncodedWrite(
            stored=stored_bytes.view(L.WORD_DTYPE).copy(),
            flags=flags,
            vulnerable_encoded=int(vuln[old, stored_bytes].sum()),
            vulnerable_raw=int(vuln[old, raw].sum()),
        )

    def encode_stored_int(self, physical: int, data: int) -> "tuple[int, int]":
        """Hot-path :meth:`encode` over int-domain lines.

        Returns ``(stored, flags)`` without computing the vulnerability
        statistics (the VnC write path never reads them).
        """
        old = np.frombuffer(physical.to_bytes(LINE_BYTES, "little"), np.uint8)
        raw = np.frombuffer(data.to_bytes(LINE_BYTES, "little"), np.uint8)
        stored_bytes = _stored_table()[old, raw]
        flags_bytes = np.packbits(_invert_table()[old, raw], bitorder="little")
        return (
            int.from_bytes(stored_bytes.tobytes(), "little"),
            int.from_bytes(flags_bytes.tobytes(), "little"),
        )

    def decode(self, stored: np.ndarray, flags: int) -> np.ndarray:
        """Invert the encoding: recover logical data from stored bytes."""
        return L.from_int(self.decode_int(L.to_int(stored), flags))

    def decode_int(self, stored: int, flags: int) -> int:
        """Int-domain :meth:`decode`: XOR the expanded inversion flags.

        ``where(invert, ~b, b)`` is exactly ``b ^ (0xFF per inverted
        byte)``, so decoding is one table expansion plus one XOR.
        """
        flag_bytes = np.frombuffer(flags.to_bytes(8, "little"), np.uint8)
        xor_words = _flag_expand_table()[flag_bytes]
        return stored ^ int.from_bytes(xor_words.tobytes(), "little")

    def encode_stored_rows(
        self, physical: np.ndarray, data: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Row-batched :meth:`encode_stored_int` over ``(N, 8)`` line batches.

        One LUT gather covers every byte of every line in the batch:
        returns ``(stored, flags)`` where ``stored`` is ``(N, 8)`` uint64
        and ``flags`` is ``(N,)`` uint64 — row ``r`` equal to
        ``encode_stored_int`` of the corresponding int-domain line pair.
        """
        n = len(physical)
        old = physical.view(np.uint8).reshape(n, -1)
        raw = data.view(np.uint8).reshape(n, -1)
        stored = _stored_table()[old, raw].view(L.WORD_DTYPE)
        flags = np.packbits(
            _invert_table()[old, raw], axis=1, bitorder="little"
        ).view(np.uint64).reshape(n)
        return stored, flags

    def decode_rows(self, stored: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """Row-batched :meth:`decode_int`: one flag expansion + XOR per batch."""
        n = len(stored)
        flag_bytes = flags.astype(np.uint64).view(np.uint8).reshape(n, 8)
        return stored ^ _flag_expand_table()[flag_bytes]

    def vulnerable_pairs(self, physical: np.ndarray, stored: np.ndarray) -> int:
        """Count word-line-vulnerable pairs a stored image would create."""
        table = _vulnerability_table()
        return int(table[physical.view(np.uint8), stored.view(np.uint8)].sum())


def wordline_vulnerable_mask(
    physical: np.ndarray, reset_mask: np.ndarray, changed_mask: np.ndarray
) -> np.ndarray:
    """Mask of idle cells vulnerable to word-line WD during a write.

    A cell is vulnerable when (i) it is horizontally adjacent (within its
    64-bit chip segment) to a cell being RESET, (ii) it is idle in this
    write, and (iii) it currently stores 0 (amorphous).
    """
    idle = (~changed_mask).astype(L.WORD_DTYPE)
    return (L.wordline_neighbours(reset_mask) & idle & ~physical).astype(L.WORD_DTYPE)


def wordline_vulnerable_mask_int(physical: int, reset: int, changed: int) -> int:
    """Int-domain :func:`wordline_vulnerable_mask`."""
    return (
        L.wordline_neighbours_int(reset)
        & (changed ^ L.MASK_ALL)
        & (physical ^ L.MASK_ALL)
    )
