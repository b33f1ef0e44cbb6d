"""64-byte PCM line representation and bit-mask kernels.

A memory line is 64 bytes = 512 SLC cells, held as **one 512-bit Python
int**: bit ``i`` of the int is cell ``i``.  Bits ``64 * w .. 64 * w + 63``
are the 8-byte segment data chip ``w`` contributes to the line (Figure 6:
a row is split into 8 data segments across 8 chips), so word-line
adjacency exists *within* a 64-bit word but not across word boundaries —
cells of different words sit in different chips.  Every line image,
error mask and sampling mask in the simulator has this form; CPython
big-int bitwise ops do a whole line in one C call.

Two other shapes appear here and nowhere else:

* ``(N, 8)`` ``uint64`` **row batches** (:func:`pack_rows`,
  :func:`unpack_rows`, :func:`sample_masks_rows`), the batched form only
  the numpy kernel backend uses;
* the ``_scalar_*`` **references**, the original ``unpackbits`` kernels
  over ``(8,)`` ``uint64`` arrays.  Equivalence tests pin the int
  kernels against them bit-for-bit and RNG-draw-for-draw.

:func:`sample_masks_int` samples several lines — e.g. a write's two
bit-line neighbours — with one RNG draw.  :func:`seeded_line` and
:func:`seeded_mask` are the reference recipes of the state plane's
per-key seeded state.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..config import LINE_BITS, LINE_BYTES, LINE_WORDS, LINES_PER_PAGE

#: dtype of the ``(N, 8)`` row batches and the scalar references.
WORD_DTYPE = np.uint64

#: All 512 bits set — AND with this after an int-domain ``~``/``^``.
MASK_ALL = (1 << LINE_BITS) - 1
#: Bit 63 of every word (per-word MSBs).
_WORD_MSBS = sum(1 << (64 * w + 63) for w in range(LINE_WORDS))
#: Bit 0 of every word (per-word LSBs).
_WORD_LSBS = sum(1 << (64 * w) for w in range(LINE_WORDS))
_NO_MSBS = MASK_ALL ^ _WORD_MSBS
_NO_LSBS = MASK_ALL ^ _WORD_LSBS

_WORD_MASK = 0xFFFFFFFFFFFFFFFF


def bit_positions_int(value: int) -> List[int]:
    """Sorted cell indices of the set bits of an int-domain mask.

    O(set bits): error and sampling masks are sparse, so low-bit
    extraction beats unpacking all 512 cells.
    """
    out: List[int] = []
    base = 0
    while value:
        word = value & _WORD_MASK
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
        value >>= 64
        base += 64
    return out


# -- adjacency -------------------------------------------------------------------


def wordline_neighbours_int(value: int) -> int:
    """Mask of all cells horizontally adjacent to any set cell.

    Each 64-bit word shifts by one cell both ways with no carry across
    word boundaries: word-line neighbours exist only within one chip's
    segment.  The input cells themselves are *not* removed; callers AND
    the result with an idle/vulnerable mask that already excludes them.
    """
    return ((value & _NO_MSBS) << 1) | ((value & _NO_LSBS) >> 1)


# -- stuck-at faults -------------------------------------------------------------


def stuck_error_mask_int(intended: int, stuck_mask: int, stuck_values: int) -> int:
    """Stuck cells whose frozen value differs from the intended image.

    These are the bits a raw read returns wrong; they are correctable only
    while an ECP entry covers them.
    """
    return (intended ^ stuck_values) & stuck_mask


# -- disturbance sampling --------------------------------------------------------


def sample_mask_int(
    candidates: int, probability: float, rng: np.random.Generator
) -> int:
    """Independently keep each set bit of ``candidates`` with ``probability``.

    This is the disturbance sampling kernel: each vulnerable cell is
    disturbed independently with the per-cell WD probability.  Consumes
    exactly ``rng.random(candidates.bit_count())`` draws (and none at the
    0/1-probability or empty-candidate edges), matching the scalar
    reference implementation draw-for-draw.
    """
    if probability <= 0.0 or candidates == 0:
        return 0
    if probability >= 1.0:
        return candidates
    keep = rng.random(candidates.bit_count()) < probability
    return _apply_keep(candidates, keep)


def pack_rows(values: List[int]) -> np.ndarray:
    """Pack int-domain line masks into one contiguous ``(N, 8)`` array.

    Row ``r`` holds the little-endian bytes of ``values[r]``, stored
    contiguously so row-batched kernels (:func:`sample_masks_rows`, the
    DIN LUT coders) touch one buffer instead of N lines.
    """
    if not values:
        return np.zeros((0, LINE_WORDS), dtype=WORD_DTYPE)
    payload = b"".join(v.to_bytes(LINE_BITS // 8, "little") for v in values)
    return np.frombuffer(payload, dtype=WORD_DTYPE).reshape(
        len(values), LINE_WORDS
    ).copy()


def unpack_rows(rows: np.ndarray) -> List[int]:
    """Int-domain masks of an ``(N, 8)`` batch (inverse of :func:`pack_rows`)."""
    data = rows.tobytes()
    stride = LINE_BITS // 8
    return [
        int.from_bytes(data[r * stride:(r + 1) * stride], "little")
        for r in range(len(rows))
    ]


def sample_masks_rows(
    rows: np.ndarray, probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Row-vectorized disturbance sampling over an ``(N, 8)`` batch.

    Unlike the per-row ``_apply_keep`` walk, every step here is one numpy
    call over the whole batch: unpack all N×512 cells, draw one
    ``rng.random(total)`` block, scatter the kept bits, repack.  The draw
    order is identical to sequential :func:`sample_mask_int` calls — set
    bits are enumerated row-major in ascending cell order, exactly the
    order the scalar kernel's low-bit extraction visits them — so the RNG
    stream (count *and* assignment) matches draw-for-draw.
    """
    n_rows = len(rows)
    out = np.zeros((n_rows, LINE_WORDS), dtype=WORD_DTYPE)
    if n_rows == 0 or probability <= 0.0:
        return out
    if probability >= 1.0:
        out[:] = rows
        return out
    bits = np.unpackbits(
        rows.view(np.uint8).reshape(n_rows, -1), axis=1, bitorder="little"
    )
    total = int(bits.sum())
    if total == 0:
        return out
    keep = rng.random(total) < probability
    if keep.any():
        r_idx, c_idx = np.nonzero(bits)  # row-major, ascending cell order
        kept_bits = np.zeros_like(bits)
        kept_bits[r_idx[keep], c_idx[keep]] = 1
        out[:] = np.packbits(
            kept_bits, axis=1, bitorder="little"
        ).view(WORD_DTYPE)
    return out


def sample_masks_int(
    candidates: List[int], probability: float, rng: np.random.Generator
) -> List[int]:
    """Batched :func:`sample_mask_int` over a list of int-domain masks.

    One ``rng.random(total)`` draw covers every mask.  ``Generator.random(n)``
    consumes exactly ``n`` uniforms, so one ``random(n_1 + ... + n_N)``
    draw splits into the per-mask draws sequential :func:`sample_mask_int`
    calls would have made: the two are RNG-stream-equivalent.
    """
    if probability <= 0.0:
        return [0] * len(candidates)
    if probability >= 1.0:
        return list(candidates)
    counts = [value.bit_count() for value in candidates]
    total = sum(counts)
    if total == 0:
        return [0] * len(candidates)
    keep = rng.random(total)
    out: List[int] = []
    offset = 0
    for value, n in zip(candidates, counts):
        if n == 0:
            out.append(0)
        else:
            out.append(_apply_keep(value, keep[offset:offset + n] < probability))
            offset += n
    return out


def _apply_keep(candidates: int, keep: np.ndarray) -> int:
    """Keep the ``i``-th set bit of ``candidates`` where ``keep[i]``."""
    kept = int(keep.sum())
    if kept == 0:
        return 0
    if kept == len(keep):
        return candidates
    flags = keep.tolist()
    out = 0
    shift = 0
    i = 0
    value = candidates
    while value:
        word = value & _WORD_MASK
        if word:
            picked = 0
            while word:
                low = word & -word
                if flags[i]:
                    picked |= low
                i += 1
                word ^= low
            if picked:
                out |= picked << shift
        value >>= 64
        shift += 64
    return out


# -- mask packing / seeded generation --------------------------------------------


def mask_from_draws(draws: np.ndarray, threshold: float) -> int:
    """Int mask with bit ``i`` set where ``draws[i] < threshold``."""
    return int.from_bytes(
        np.packbits(draws < threshold, bitorder="little").tobytes(), "little"
    )


def draw_mask(rng: np.random.Generator, bits: int, threshold: float) -> int:
    """Bit ``i`` set where draw ``i`` of ``rng.random(bits)`` is below
    ``threshold`` (always ``bits`` draws)."""
    return mask_from_draws(rng.random(bits), threshold)


#: Row images :func:`seeded_line` keeps, least recently used out first.
#: Seeding numpy costs about 15 us, so the lines of a recently drawn row
#: are slices; 2048 rows hold 8 MiB.
ROW_MEMO = 2048


@lru_cache(maxsize=ROW_MEMO)
def _seeded_row(key: Tuple[int, ...]) -> bytes:
    """A row's 64 lines: ``default_rng(key).integers(0, 2**64, 512,
    dtype=uint64)`` as bytes."""
    rng = np.random.default_rng(key)
    return rng.integers(
        0, 1 << 64, size=LINES_PER_PAGE * LINE_WORDS, dtype=WORD_DTYPE
    ).tobytes()


def seeded_line(key: Tuple[int, ...], line: int) -> int:
    """Line ``line`` of the row ``key`` seeds: words ``8 * line`` to
    ``8 * line + 7`` of ``default_rng(key).integers(0, 2**64, 512,
    dtype=uint64)``, as the little-endian int of their bytes."""
    if not 0 <= line < LINES_PER_PAGE:
        raise ValueError(f"line {line} outside a {LINES_PER_PAGE}-line row")
    start = line * LINE_BYTES
    return int.from_bytes(_seeded_row(key)[start:start + LINE_BYTES], "little")


def seeded_mask(key: Tuple[int, ...], bits: int, threshold: float) -> int:
    """Bit ``i`` set where draw ``i`` of ``default_rng(key).random(bits)``
    is below ``threshold``."""
    return draw_mask(np.random.default_rng(key), bits, threshold)


# -- scalar reference implementations -------------------------------------------
#
# The original unpackbits-based kernels over (8,) uint64 arrays, kept as
# the behavioural reference: equivalence tests assert the int kernels above
# match these bit-for-bit under identical RNG seeds.


def _scalar_popcount(mask: np.ndarray) -> int:
    """Reference popcount (original ``unpackbits`` implementation)."""
    return int(np.unpackbits(mask.view(np.uint8)).sum())


def _scalar_bit_positions(mask: np.ndarray) -> List[int]:
    """Reference bit-position extraction."""
    bits = np.unpackbits(mask.view(np.uint8), bitorder="little")
    return [int(i) for i in np.nonzero(bits)[0]]


def _scalar_sample_mask(
    candidates: np.ndarray, probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Reference disturbance sampler (unpack -> sample -> repack)."""
    if probability <= 0.0:
        return np.zeros(LINE_WORDS, dtype=WORD_DTYPE)
    bits = np.unpackbits(candidates.view(np.uint8), bitorder="little")
    n = int(bits.sum())
    if n == 0:
        return np.zeros(LINE_WORDS, dtype=WORD_DTYPE)
    if probability >= 1.0:
        return candidates.copy()
    keep = rng.random(n) < probability
    if not keep.any():
        return np.zeros(LINE_WORDS, dtype=WORD_DTYPE)
    idx = np.nonzero(bits)[0][keep]
    out = np.zeros(LINE_BITS, dtype=np.uint8)
    out[idx] = 1
    return np.packbits(out, bitorder="little").view(WORD_DTYPE).copy()
