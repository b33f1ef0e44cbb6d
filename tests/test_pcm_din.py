"""Tests for the DIN word-line encoder substitute."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LINE_BITS, LINE_WORDS
from repro.pcm import line as L
from repro.pcm.din import (
    VULNERABILITY_WEIGHT,
    DINEncoder,
    wordline_vulnerable_mask_int,
)

lines = st.integers(min_value=0, max_value=L.MASK_ALL)


@pytest.fixture
def encoder() -> DINEncoder:
    return DINEncoder()


def random_line(rng: np.random.Generator) -> int:
    words = rng.integers(0, 1 << 64, size=LINE_WORDS, dtype=np.uint64)
    return int.from_bytes(words.tobytes(), "little")


def random_lines(seed):
    rng = np.random.default_rng(seed)
    return random_line(rng), random_line(rng)


def bits(*cells: int) -> int:
    return sum(1 << p for p in set(cells))


def brute_force_vulnerable(physical: int, stored: int) -> int:
    """Idle amorphous cells next to a RESET cell in the same byte, cell by cell."""
    count = 0
    for cell in range(LINE_BITS):
        old, new = physical >> cell & 1, stored >> cell & 1
        if old or new:
            continue  # pulsed, or crystalline and idle
        for other in (cell - 1, cell + 1):
            if 0 <= other < LINE_BITS and other // 8 == cell // 8:
                if physical >> other & 1 and not stored >> other & 1:
                    count += 1
                    break
    return count


def vulnerable_encoded(encoder, physical, data):
    stored, _ = encoder.encode_stored_int(physical, data)
    return encoder.vulnerable_pairs(physical, stored)


class TestBijection:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_roundtrip(self, seed):
        encoder = DINEncoder()
        physical, data = random_lines(seed)
        stored, flags = encoder.encode_stored_int(physical, data)
        assert encoder.decode_int(stored, flags) == data

    def test_identity_when_no_flags(self, encoder):
        physical, data = random_lines(0)
        assert encoder.decode_int(data, 0) == data

    def test_all_flags_invert(self, encoder):
        physical, data = random_lines(1)
        flags = (1 << 64) - 1
        assert encoder.decode_int(data, flags) == data ^ L.MASK_ALL


class TestEffectiveness:
    def test_never_worse_than_raw(self, encoder):
        """The encoder's chosen image never has more weighted cost than
        the raw data: each byte keeps the cheaper of its two images."""
        def cost(physical, image):
            return VULNERABILITY_WEIGHT * encoder.vulnerable_pairs(
                physical, image
            ) + (physical ^ image).bit_count()

        for seed in range(20):
            physical, data = random_lines(seed)
            stored, _ = encoder.encode_stored_int(physical, data)
            assert cost(physical, stored) <= cost(physical, data)

    @settings(max_examples=60, deadline=None)
    @given(lines, lines)
    def test_vulnerable_pairs_matches_brute_force(self, physical, stored):
        assert DINEncoder.vulnerable_pairs(physical, stored) == (
            brute_force_vulnerable(physical, stored)
        )

    def test_reduces_vulnerability_on_average(self, encoder):
        raw_total, enc_total = 0, 0
        for seed in range(50):
            physical, data = random_lines(seed)
            raw_total += encoder.vulnerable_pairs(physical, data)
            enc_total += vulnerable_encoded(encoder, physical, data)
        assert enc_total <= raw_total

    def test_low_entropy_write_prefers_raw(self, encoder):
        """A write changing almost nothing should rarely invert bytes —
        inversion costs a full byte of programming."""
        physical = random_line(np.random.default_rng(3))
        data = physical ^ bits(17)
        _, flags = encoder.encode_stored_int(physical, data)
        assert flags.bit_count() <= 2


class TestVulnerableMask:
    @staticmethod
    def vulnerable(physical: int, new: int) -> list:
        reset = physical & ~new
        mask = wordline_vulnerable_mask_int(physical, reset, physical ^ new)
        return L.bit_positions_int(mask)

    def test_idle_zero_next_to_reset(self):
        # physical: bit 5 set (will be RESET), bit 6 zero and idle.
        positions = self.vulnerable(bits(5), 0)
        assert 6 in positions and 4 in positions
        assert 5 not in positions

    def test_crystalline_neighbour_not_vulnerable(self):
        # RESET bit 5 only; 6 stays 1.
        assert 6 not in self.vulnerable(bits(5, 6), bits(6))

    def test_written_neighbour_not_vulnerable(self):
        """A cell being programmed in the same write is not idle."""
        positions = self.vulnerable(bits(5, 6), 0)  # RESET both 5 and 6
        assert 6 not in positions
        assert 5 not in positions
