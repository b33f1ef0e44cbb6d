"""Tests for cell semantics."""

from __future__ import annotations

import pytest

from repro.pcm.cell import CellState, Pulse, disturbed_value, pulse_for


class TestCellSemantics:
    def test_bit_encoding(self):
        """Amorphous = 0, crystalline = 1 (Section 2.1)."""
        assert CellState.AMORPHOUS.bit == 0
        assert CellState.CRYSTALLINE.bit == 1

    def test_vulnerability(self):
        """Only idle amorphous cells can be disturbed (Section 2.2.1)."""
        assert CellState.AMORPHOUS.vulnerable
        assert not CellState.CRYSTALLINE.vulnerable

    def test_pulse_selection(self):
        assert pulse_for(0) is Pulse.RESET
        assert pulse_for(1) is Pulse.SET
        with pytest.raises(ValueError):
            pulse_for(2)

    def test_disturbed_cell_reads_one(self):
        """Partial crystallisation collapses resistance: reads as 1."""
        assert disturbed_value() == 1
