"""Tests for cell semantics."""

from __future__ import annotations

from repro.config import TimingConfig
from repro.pcm import line as L
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellFault
from repro.pcm.differential_write import rounds_latency


class TestCellSemantics:
    def test_bit_encoding(self):
        """Amorphous = 0, crystalline = 1 (Section 2.1): a cell stuck in
        a phase reads that phase's bit."""
        assert int(CellFault.STUCK_AMORPHOUS) == 0
        assert int(CellFault.STUCK_CRYSTALLINE) == 1

    def test_vulnerability(self):
        """Only idle amorphous cells can be disturbed (Section 2.2.1):
        disturbing every cell of a line flips exactly its 0 bits."""
        array = PCMArray(banks=1, rows_per_bank=4, seed=0)
        key = (0, 2, 0)
        stored = array.line(key).stored
        array.disturb_int(key, L.MASK_ALL)
        assert array.line(key).disturbed == ~stored & L.MASK_ALL
        assert array.line(key).disturbed & stored == 0

    def test_pulse_selection(self):
        """A 0 is programmed by a RESET pulse, a 1 by a SET pulse: a
        differential write prices each at its pulse's latency."""
        timing = TimingConfig()
        assert rounds_latency(1, 0, timing) == timing.reset_cycles
        assert rounds_latency(0, 1, timing) == timing.set_cycles

    def test_disturbed_cell_reads_one(self):
        """Partial crystallisation collapses resistance: reads as 1."""
        array = PCMArray(banks=1, rows_per_bank=4, seed=0)
        key = (0, 1, 0)
        stored = array.line(key).stored
        amorphous = ~stored & L.MASK_ALL
        assert array.disturb_int(key, L.MASK_ALL) == amorphous.bit_count()
        assert stored | array.line(key).disturbed == L.MASK_ALL
