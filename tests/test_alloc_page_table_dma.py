"""Tests for the tagged page table (Section 4.4)."""

from __future__ import annotations

import pytest

from repro.alloc.page_table import MAX_ALLOCATORS, TAG_BITS, PageTable
from repro.errors import AllocationError


def counter_source():
    state = {"next": 0}

    def source(n: int, m: int) -> int:
        frame = state["next"]
        state["next"] += 1
        return frame

    return source


class TestPageTable:
    def test_demand_fault_allocates(self):
        pt = PageTable((1, 1), counter_source())
        assert pt.translate(100) == 0
        assert pt.faults == 1

    def test_translation_stable(self):
        pt = PageTable((1, 1), counter_source())
        first = pt.translate(5)
        second = pt.translate(5)
        assert first == second
        assert pt.faults == 1

    def test_tag_propagates(self):
        """Every translation carries the table's one tag."""
        pt = PageTable((2, 3), counter_source())
        assert pt.translate(0) == 0
        assert pt.nm_tag == (2, 3)

    def test_bad_tag(self):
        with pytest.raises(AllocationError):
            PageTable((3, 2), counter_source())

    def test_tag_fits_pte_field(self):
        assert MAX_ALLOCATORS == 1 << TAG_BITS == 16

