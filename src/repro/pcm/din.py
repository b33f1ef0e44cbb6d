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

Lines are 512-bit ints (see :mod:`repro.pcm.line`); byte ``i`` of a line
is bits ``8 * i .. 8 * i + 7``.  Encoding is a bijection:
``decode_int(*encode_stored_int(physical, data)) == data``.  Flag bits are
stored in the line's metadata region, which (like DIN's code bits) is
engineered WD-free, so flags are never disturbed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..config import LINE_BYTES
from . import line as L

#: Bit 7 / bit 0 of every byte of a line, cleared: per-byte shifts that
#: keep word-line adjacency inside one byte's encoder.
_NO_BYTE_MSBS = L.MASK_ALL ^ int.from_bytes(b"\x80" * LINE_BYTES, "little")
_NO_BYTE_LSBS = L.MASK_ALL ^ int.from_bytes(b"\x01" * LINE_BYTES, "little")


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
def _flag_xor_ints() -> "tuple[int, ...]":
    """:func:`_flag_expand_table` as Python ints (the int-domain decoder's)."""
    return tuple(int(word) for word in _flag_expand_table())


def invert_flagged_bytes(value: int, flags: int) -> int:
    """``value`` with byte ``i`` inverted wherever bit ``i`` of ``flags`` is set.

    ``where(invert, ~b, b)`` is exactly ``b ^ (0xFF per inverted byte)``,
    so this is one XOR with the flags expanded word by word through the
    256-entry int form of the flag-expand table.  Both per-byte inversion
    codes (DIN and Flip-N-Write) decode with it.
    """
    if not flags:
        return value
    expand = _flag_xor_ints()
    xor = 0
    for word, byte in enumerate(flags.to_bytes(8, "little")):
        if byte:
            xor |= expand[byte] << (64 * word)
    return value ^ xor


@lru_cache(maxsize=1)
def din_tables() -> "tuple[np.ndarray, np.ndarray]":
    """The encoder's ``(stored, invert)`` LUTs for native kernels.

    C-contiguous ``(256, 256)`` uint8 arrays indexed ``[old, raw]`` —
    the exact tables :meth:`DINEncoder.encode_stored_int` gathers from,
    which the compiled backend installs into its extension module once
    at load.
    """
    return (
        np.ascontiguousarray(_stored_table()),
        np.ascontiguousarray(_invert_table()),
    )


class DINEncoder:
    """Per-byte inversion encoder minimising word-line-vulnerable patterns."""

    def encode_stored_int(self, physical: int, data: int) -> "tuple[int, int]":
        """Choose per-byte inversions for writing ``data`` over ``physical``.

        Returns the stored-domain image and the flag word (bit ``i`` set
        means byte ``i`` is inverted).  The choice is greedy and per-byte:
        adjacency across byte boundaries is not re-evaluated, matching the
        hardware's parallel per-byte encoders.
        """
        old = np.frombuffer(physical.to_bytes(LINE_BYTES, "little"), np.uint8)
        raw = np.frombuffer(data.to_bytes(LINE_BYTES, "little"), np.uint8)
        stored_bytes = _stored_table()[old, raw]
        flags_bytes = np.packbits(_invert_table()[old, raw], bitorder="little")
        return (
            int.from_bytes(stored_bytes.tobytes(), "little"),
            int.from_bytes(flags_bytes.tobytes(), "little"),
        )

    def decode_int(self, stored: int, flags: int) -> int:
        """Invert the encoding: recover logical data from stored bytes."""
        return invert_flagged_bytes(stored, flags)

    @staticmethod
    def vulnerable_pairs(physical: int, stored: int) -> int:
        """Word-line-vulnerable cells a stored image creates over ``physical``.

        A cell counts when it is idle in the write, stores 0 (amorphous)
        and sits next to a cell being RESET within the same byte — the
        per-byte criterion of :func:`_vulnerability_table`, summed over
        the line.
        """
        reset = physical & ~stored
        neighbours = (
            ((reset & _NO_BYTE_MSBS) << 1) | ((reset & _NO_BYTE_LSBS) >> 1)
        )
        # Idle and amorphous: the cell stores 0 before and after the write.
        return (neighbours & ~(physical | stored)).bit_count()


def wordline_vulnerable_mask_int(physical: int, reset: int, changed: int) -> int:
    """Mask of idle cells vulnerable to word-line WD during a write.

    A cell is vulnerable when (i) it is horizontally adjacent (within its
    64-bit chip segment) to a cell being RESET, (ii) it is idle in this
    write, and (iii) it currently stores 0 (amorphous).
    """
    return (
        L.wordline_neighbours_int(reset)
        & (changed ^ L.MASK_ALL)
        & (physical ^ L.MASK_ALL)
    )
