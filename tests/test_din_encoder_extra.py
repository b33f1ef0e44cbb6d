"""Additional DIN-encoder behaviour under structured data patterns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LINE_BYTES, LINE_WORDS
from repro.pcm import line as L
from repro.pcm.din import (
    VULNERABILITY_WEIGHT,
    DINEncoder,
    _vulnerability_table,
)


@pytest.fixture
def encoder():
    return DINEncoder()


def random_line(rng: np.random.Generator) -> int:
    words = rng.integers(0, 1 << 64, size=LINE_WORDS, dtype=np.uint64)
    return int.from_bytes(words.tobytes(), "little")


class TestStructuredPatterns:
    def test_all_zero_write_over_ones(self, encoder):
        """Clearing a crystalline line: raw encoding RESETs everything,
        creating no vulnerable pairs (no idle-0 neighbours during the
        write itself: every cell is being written)."""
        physical = L.MASK_ALL
        stored, _ = encoder.encode_stored_int(physical, 0)
        assert encoder.vulnerable_pairs(physical, stored) == 0

    def test_alternating_pattern_is_worst_case(self, encoder):
        """0101... data over a zero line maximises RESET-next-to-idle-0
        pairs in the raw encoding; the encoder must not do worse."""
        alternating = int.from_bytes(b"\xAA" * 64, "little")
        stored, _ = encoder.encode_stored_int(0, alternating)
        assert encoder.vulnerable_pairs(0, stored) <= (
            encoder.vulnerable_pairs(0, alternating)
        )

    def test_flags_zero_for_identity_write(self, encoder):
        physical = random_line(np.random.default_rng(1))
        _, flags = encoder.encode_stored_int(physical, physical)
        # Writing identical data: inversion would cost 8 cells per byte
        # for zero vulnerability benefit.
        assert flags == 0

    def test_weight_constant_sane(self):
        assert VULNERABILITY_WEIGHT >= 1

    def test_encoding_does_not_break_differential_write(self, encoder):
        """End-to-end: encode, differentially write, decode == data."""
        rng = np.random.default_rng(9)
        physical = random_line(rng)
        data = random_line(rng)
        stored, flags = encoder.encode_stored_int(physical, data)
        reset = physical & ~stored
        set_ = stored & ~physical
        applied = (physical & ~reset) | set_
        assert encoder.decode_int(applied, flags) == data

    def test_vulnerable_pairs_helper_matches_encode(self, encoder):
        """The int count equals the per-byte table the encoder's cost uses."""
        rng = np.random.default_rng(4)
        physical, data = random_line(rng), random_line(rng)
        stored, _ = encoder.encode_stored_int(physical, data)
        old = np.frombuffer(physical.to_bytes(LINE_BYTES, "little"), np.uint8)
        new = np.frombuffer(stored.to_bytes(LINE_BYTES, "little"), np.uint8)
        assert encoder.vulnerable_pairs(physical, stored) == int(
            _vulnerability_table()[old, new].sum()
        )
