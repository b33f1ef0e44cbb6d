"""Pure-Python reference backend.

Thin delegation onto the existing int-domain kernels in
:mod:`repro.pcm.line` and :mod:`repro.pcm.din` — this backend *is* the
behavioural reference the other backends are pinned against, and the
guaranteed-available fallback on hosts with no C compiler.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .. import din as D
from .. import line as L
from .base import KernelBackend


class PythonBackend(KernelBackend):
    """Reference backend: CPython big-int bit ops + numpy LUT gathers."""

    name = "python"

    def __init__(self) -> None:
        self._encoder = D.DINEncoder()

    # -- disturbance sampling ----------------------------------------------------

    def sample_mask_int(
        self, candidates: int, probability: float, rng: np.random.Generator
    ) -> int:
        return L.sample_mask_int(candidates, probability, rng)

    def sample_masks_int(
        self, candidates: List[int], probability: float, rng: np.random.Generator
    ) -> List[int]:
        return L.sample_masks_int(candidates, probability, rng)

    # -- positions ---------------------------------------------------------------

    def bit_positions_int(self, value: int) -> List[int]:
        return L.bit_positions_int(value)

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
