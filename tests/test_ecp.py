"""Tests for the ECP substrate: per-line ECP-N, chip, wear."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LINE_BITS
from repro.core.vnc import NOVEL_ENTRY_BITS
from repro.ecp.chip import ECPChip, ECPChipGeometry
from repro.ecp.line_ecp import ECPLine
from repro.ecp.wear import WearModel
from repro.errors import ECPExhaustedError, ConfigError
from repro.pcm import line as L


class TestEntry:
    def test_entry_bits(self):
        # A novel entry programs a 9-bit pointer (one of 512 cells) plus
        # its 1-bit value.
        assert LINE_BITS == 1 << 9
        assert NOVEL_ENTRY_BITS == 10


def bits(*positions: int) -> int:
    """The int-domain line mask with ``positions`` set."""
    return sum(1 << p for p in set(positions))


class TestECPLineWD:
    def test_absorb_within_capacity(self):
        line = ECPLine(capacity=6)
        assert line.record_wd(bits(1, 2)) == bits(1, 2)
        assert line.wd == bits(1, 2)
        assert line.wd.bit_count() == 2 and line.free == 4

    def test_overflow_is_all_or_nothing(self):
        line = ECPLine(capacity=3)
        assert line.record_wd(bits(1, 2)) == bits(1, 2)
        assert line.record_wd(bits(3, 4)) == -1
        assert line.wd == bits(1, 2)  # nothing partially programmed

    def test_duplicate_positions_free(self):
        line = ECPLine(capacity=2)
        line.record_wd(bits(5))
        assert line.record_wd(bits(5, 6)) == bits(6)  # only cell 6 is new
        assert line.record_wd(bits(5, 6)) == 0  # held: absorbed for free
        assert line.free == 0

    def test_after_a_clear_hard_cells_count_apart(self):
        """Once the op in flight cleared the line, a hard entry's cell
        takes a WD entry too, and X counts it beside the hard entry."""
        line = ECPLine(capacity=3)
        line.add_hard_error(4, 1)
        assert line.record_wd(bits(4, 5)) == bits(5)
        line.clear_wd()
        assert line.record_wd(bits(4, 5), cleared=True) == bits(4, 5)
        assert line.occupied == 3
        assert line.record_wd(bits(6), cleared=True) == -1

    def test_clear_wd(self):
        line = ECPLine(capacity=6)
        line.record_wd(bits(1, 2, 3))
        assert line.clear_wd() == 3
        assert line.wd.bit_count() == 0

    def test_would_overflow(self):
        """Section 4.2's X + Y > N test, at its boundary."""
        line = ECPLine(capacity=6)
        line.record_wd(bits(*range(5)))
        assert line.record_wd(bits(5, 6)) == -1  # 5 + 2 > 6
        assert line.record_wd(bits(5)) == bits(5)  # 5 + 1 <= 6
        # ECP-0 still absorbs an offer of no new errors (0 + 0 <= 0).
        assert ECPLine(capacity=0).record_wd(0) == 0


class TestECPLineHard:
    def test_hard_priority_evicts_wd(self):
        line = ECPLine(capacity=2)
        line.record_wd(bits(1, 2))
        evicted = line.add_hard_error(9, 1)
        assert evicted in (1, 2)
        assert line.hard_count == 1 and line.wd.bit_count() == 1

    def test_hard_overflow_raises(self):
        line = ECPLine(capacity=1)
        line.add_hard_error(0, 0)
        with pytest.raises(ECPExhaustedError):
            line.add_hard_error(1, 0)

    def test_hard_survives_clear(self):
        line = ECPLine(capacity=6)
        line.add_hard_error(7, 1)
        line.record_wd(bits(1))
        line.clear_wd()
        assert line.hard_count == 1
        assert (line.hard, line.hard_values, line.wd) == (bits(7), bits(7), 0)

    def test_duplicate_hard_noop(self):
        line = ECPLine(capacity=2)
        line.add_hard_error(3, 1)
        assert line.add_hard_error(3, 1) == -1
        assert line.hard_count == 1


def ecp_read(line: ECPLine, physical: int) -> int:
    """A raw read of the line with every entry applied: WD entries read
    0, hard entries read their recorded value."""
    return physical & ~(line.hard | line.wd) | line.hard_values


class TestCorrectedRead:
    def test_entries_override_cells(self):
        line = ECPLine(capacity=6)
        line.record_wd(bits(0))            # cell 0 disturbed, correct value 0
        line.add_hard_error(1, 1)          # cell 1 stuck, correct value 1
        corrected = ecp_read(line, bits(0))  # cell 0 reads 1 (disturbed)
        assert corrected & bits(0) == 0
        assert corrected & bits(1) == bits(1)

    def test_covered_mask(self):
        line = ECPLine(capacity=6)
        line.record_wd(bits(10, 20))
        line.add_hard_error(30, 1)
        assert L.bit_positions_int(line.hard | line.wd) == [10, 20, 30]
        assert line.hard_values == bits(30)

    @given(st.lists(st.integers(0, LINE_BITS - 1), unique=True, max_size=6))
    def test_read_path_restores_stored_values(self, positions):
        """Property: disturbed cells covered by ECP always read correctly."""
        line = ECPLine(capacity=6)
        line.record_wd(bits(*positions))
        # All flipped to 1.
        assert ecp_read(line, bits(*positions)) == 0


class PositionsModel:
    """The dict-of-positions ECP line the mask-based one replaced."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.hard: dict = {}  # position -> stored value
        self.wd: dict = {}    # position -> correct value (always 0)

    def occupied(self) -> int:
        return len(self.hard) + len(self.wd)

    def record(self, positions) -> bool:
        fresh = [p for p in positions if p not in self.hard and p not in self.wd]
        if self.occupied() + len(fresh) > self.capacity:
            return False
        for p in fresh:
            self.wd[p] = 0
        return True

    def clear(self) -> int:
        count = len(self.wd)
        self.wd.clear()
        return count

    def add_hard(self, position: int, value: int) -> int:
        if position in self.hard:
            return -1
        if len(self.hard) >= self.capacity:
            raise ECPExhaustedError("full")
        evicted = -1
        if self.occupied() == self.capacity:
            evicted = max(self.wd)
            del self.wd[evicted]
        self.wd.pop(position, None)
        self.hard[position] = value
        return evicted


_positions = st.lists(st.integers(0, 40), unique=True, max_size=5)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), _positions),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("hard"), st.tuples(st.integers(0, 40), st.integers(0, 1))),
    ),
    max_size=30,
)


class TestMaskLineMatchesPositionsModel:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), _ops)
    def test_random_sequences_agree(self, capacity, ops):
        line, model = ECPLine(capacity), PositionsModel(capacity)
        for op, arg in ops:
            if op == "record":
                absorbed = line.record_wd(bits(*arg)) >= 0
                assert absorbed == model.record(arg)
            elif op == "clear":
                assert line.clear_wd() == model.clear()
            else:
                position, value = arg
                try:
                    expected = model.add_hard(position, value)
                except ECPExhaustedError:
                    with pytest.raises(ECPExhaustedError):
                        line.add_hard_error(position, value)
                else:
                    assert line.add_hard_error(position, value) == expected
            assert line.occupied == model.occupied()
            assert line.hard_count == len(model.hard)
            assert line.wd.bit_count() == len(model.wd)
            assert L.bit_positions_int(line.hard | line.wd) == sorted(
                set(model.hard) | set(model.wd)
            )
            assert line.hard == bits(*model.hard)
            assert line.hard_values == bits(
                *(p for p, v in model.hard.items() if v)
            )
            assert line.wd == bits(*model.wd)


class TestChipAndWear:
    def test_chip_lazy_lines(self):
        chip = ECPChip(entries_per_line=6)
        assert chip.lines.get((0, 1, 2)) is None
        chip.line((0, 1, 2)).record_wd(bits(1))
        assert chip.lines.get((0, 1, 2)) is not None
        assert chip.lines.get((9, 9, 9)) is None

    def test_chip_geometry_wd_free(self):
        geometry = ECPChipGeometry()
        assert geometry.wd_free
        assert geometry.area_premium_vs_data_chip == 2.0

    def test_wear_model_monotone(self):
        model = WearModel()
        means = [model.mean_hard_errors(f) for f in (0.0, 0.5, 1.0)]
        assert means[0] == 0.0
        assert means == sorted(means)
        assert means[-1] == pytest.approx(2.0)

    def test_wear_model_sampling(self):
        model = WearModel()
        rng = np.random.default_rng(0)
        samples = model.sample_line_hard_errors(1.0, rng, size=1000)
        assert samples.mean() == pytest.approx(2.0, rel=0.15)

    def test_bad_lifetime_fraction(self):
        with pytest.raises(ConfigError):
            WearModel().mean_hard_errors(1.5)
