"""Numpy packed-uint64 row backend.

Replaces the reference's per-bit Python loops with numpy passes: the
batched sampler (``sample_masks_int``) works on one contiguous ``(N, 8)``
uint64 buffer, and ``bit_positions_int`` is an ``unpackbits``/``nonzero``
pass.  The other kernels share the reference implementations.

RNG-stream identity with the reference is preserved by construction:
draws are ``rng.random(total)`` blocks with ``total`` equal to the
popcount the sequential scalar calls would have consumed, compared
against the probability elementwise (see ``line.sample_masks_rows``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ...config import LINE_BITS
from .. import din as D
from .. import line as L
from .base import KernelBackend


class NumpyBackend(KernelBackend):
    """Row-vectorized backend: one numpy call per kernel per chunk."""

    name = "numpy"

    def __init__(self) -> None:
        self._encoder = D.DINEncoder()

    # -- disturbance sampling ----------------------------------------------------

    def sample_mask_int(
        self, candidates: int, probability: float, rng: np.random.Generator
    ) -> int:
        # Single-line calls keep the int fast path: the big-int scatter
        # beats a 1-row unpack/repack round trip, and the RNG contract
        # (draws == popcount) is shared with the row form.
        return L.sample_mask_int(candidates, probability, rng)

    def sample_masks_int(
        self, candidates: List[int], probability: float, rng: np.random.Generator
    ) -> List[int]:
        if probability <= 0.0:
            return [0] * len(candidates)
        if probability >= 1.0:
            return list(candidates)
        rows = L.pack_rows(candidates)
        return L.unpack_rows(L.sample_masks_rows(rows, probability, rng))

    # -- positions ---------------------------------------------------------------

    def bit_positions_int(self, value: int) -> List[int]:
        if value == 0:
            return []
        bits = np.unpackbits(
            np.frombuffer(value.to_bytes(LINE_BITS // 8, "little"), np.uint8),
            bitorder="little",
        )
        return np.nonzero(bits)[0].tolist()

    # -- DIN inversion coding ----------------------------------------------------

    def encode_stored_int(self, physical: int, data: int) -> Tuple[int, int]:
        return self._encoder.encode_stored_int(physical, data)

    def decode_int(self, stored: int, flags: int) -> int:
        return self._encoder.decode_int(stored, flags)

    # -- mask packing / seeded generation ----------------------------------------

    def draw_mask(
        self, rng: np.random.Generator, bits: int, threshold: float
    ) -> int:
        return L.draw_mask(rng, bits, threshold)

    def seeded_words(self, key: Tuple[int, ...], count: int) -> bytes:
        return L.seeded_words(key, count)

    def seeded_mask(self, key: Tuple[int, ...], bits: int, threshold: float) -> int:
        return L.seeded_mask(key, bits, threshold)

    def seeded_rng(self, key: Tuple[int, ...]) -> np.random.Generator:
        return np.random.default_rng(key)
