"""Section 4.2's fallback: when hard errors consume all ECP entries,
LazyCorrection degrades to basic VnC for that line."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DisturbanceConfig, SchemeConfig, TimingConfig
from repro.core.vnc import VnCExecutor
from repro.ecp.chip import ECPChip
from repro.mem.request import WriteEntry
from repro.pcm.array import PCMArray
from repro.stats.counters import Counters


def build_with_full_hard_ecp(capacity=6):
    scheme = SchemeConfig(lazy_correction=True, ecp_entries=capacity)
    array = PCMArray(banks=16, rows_per_bank=32, seed=11)
    ecp = ECPChip(entries_per_line=capacity)
    counters = Counters()
    executor = VnCExecutor(
        array=array,
        ecp=ecp,
        scheme=scheme,
        timing=TimingConfig(),
        disturbance=DisturbanceConfig(p_bitline=0.115),
        counters=counters,
        rng=np.random.default_rng(11),
        flip_fractions=[0.13],
    )
    # Fill both victims' ECP lines with hard errors.
    for row in (9, 11):
        line = ecp.line((2, row, 3))
        for i in range(capacity):
            line.add_hard_error(i, 1)
    return executor, array, ecp, counters


def write(executor, row=10):
    entry = WriteEntry(0, (2, row, 3))
    entry.slots = executor.preread_slots(entry)
    executor._commit(entry, executor.execute(entry, 0))
    executor.publish_counters()
    return entry


class TestFallbackToBasicVnC:
    def test_every_error_corrected_not_buffered(self):
        executor, array, ecp, counters = build_with_full_hard_ecp()
        for _ in range(6):
            write(executor)
        if counters.bitline_errors == 0:
            pytest.skip("no errors sampled")
        # The hard-saturated victims cannot buffer anything: every error in
        # them overflows into a correction.  (Cascade errors landing in
        # *other* rows may still be absorbed by their own empty ECP lines.)
        assert counters.ecp_overflows >= 1
        assert counters.corrections >= 1
        for row in (9, 11):
            line = ecp.line((2, row, 3))
            assert line.wd_count == 0
            # Victims end up physically clean (basic-VnC behaviour).
            addr = (2, row, 3)
            assert array.line(addr).disturbed == 0

    def test_hard_entries_survive_corrections(self):
        executor, array, ecp, counters = build_with_full_hard_ecp()
        for _ in range(6):
            write(executor)
        for row in (9, 11):
            line = ecp.line((2, row, 3))
            assert line.hard_count == 6
            assert line.wd_count == 0

    def test_partial_hard_occupancy_halves_buffering(self):
        """With k hard errors, only N-k WD errors fit before overflow."""
        scheme = SchemeConfig(lazy_correction=True, ecp_entries=6)
        array = PCMArray(banks=16, rows_per_bank=32, seed=12)
        ecp = ECPChip(entries_per_line=6)
        executor = VnCExecutor(
            array=array,
            ecp=ecp,
            scheme=scheme,
            timing=TimingConfig(),
            disturbance=DisturbanceConfig(p_bitline=1.0, weak_cell_fraction=1.0),
            counters=Counters(),
            rng=np.random.default_rng(12),
            flip_fractions=[0.13],
        )
        line = ecp.line((2, 11, 3))
        for i in range(4):
            line.add_hard_error(i, 1)
        write(executor, row=10)
        # At p=1 the victim takes far more than 2 errors: must overflow.
        assert executor.counters.ecp_overflows >= 1
