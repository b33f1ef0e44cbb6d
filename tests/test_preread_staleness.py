"""Tests for PreRead freshness semantics (Section 4.3 corner cases)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DisturbanceConfig, SchemeConfig, TimingConfig
from repro.core.vnc import VnCExecutor
from repro.ecp.chip import ECPChip
from repro.mem.request import PrereadSlot, WriteEntry
from repro.pcm.array import PCMArray
from repro.stats.counters import Counters


def build(scheme=None):
    scheme = scheme or SchemeConfig(preread=True, lazy_correction=True)
    array = PCMArray(banks=16, rows_per_bank=64, seed=3)
    counters = Counters()
    executor = VnCExecutor(
        array=array,
        ecp=ECPChip(entries_per_line=scheme.ecp_entries),
        scheme=scheme,
        timing=TimingConfig(),
        disturbance=DisturbanceConfig(p_bitline=0.0, p_wordline=0.0),
        counters=counters,
        rng=np.random.default_rng(3),
    )
    return executor, counters


def entry_for(executor, row=10):
    entry = WriteEntry(0, (1, row, 2))
    entry.slots = executor.preread_slots(entry)
    return entry


def commit(executor, entry, now):
    executor._commit(entry, executor.execute(entry, now))
    executor.publish_counters()


class TestFreshness:
    def test_fresh_preread_skips_read(self):
        executor, counters = build()
        entry = entry_for(executor)
        for slot in entry.slots:
            executor.capture_baseline(slot)
            slot.done = True
        commit(executor, entry, 0)
        assert counters.preread_hits == 2
        assert counters.pre_write_reads == 0
        assert counters.preread_stale == 0

    def test_missing_preread_charges_read(self):
        executor, counters = build()
        entry = entry_for(executor)
        commit(executor, entry, 0)
        assert counters.pre_write_reads == 2
        assert counters.preread_hits == 0

    def test_stale_preread_recharged(self):
        """A demand write to the victim between preread and execution makes
        the buffered data stale; the op must re-read."""
        executor, counters = build()
        entry = entry_for(executor, row=10)
        for slot in entry.slots:
            executor.capture_baseline(slot)
            slot.done = True
        # Demand write to the top victim (row 9) bumps its epoch.
        victim_entry = entry_for(executor, row=9)
        commit(executor, victim_entry, 0)
        commit(executor, entry, 100)
        assert counters.preread_stale == 1
        assert counters.preread_hits == 1  # the other victim stayed fresh

    def test_forwarded_slot_never_stale(self):
        """Queue-forwarded slots reflect the newest queued data by
        construction (Section 4.3's same-queue forwarding)."""
        executor, counters = build()
        entry = entry_for(executor, row=10)
        for slot in entry.slots:
            slot.done = True
            slot.forwarded = True
        victim_entry = entry_for(executor, row=9)
        commit(executor, victim_entry, 0)
        commit(executor, entry, 100)
        assert counters.preread_stale == 0
        assert counters.preread_forwards == 0  # counted by the controller

    def test_latency_reflects_hits(self):
        """Same write, planned with and without pre-read hits: the latency
        difference is exactly the two hidden array reads.  A plan applies
        its write, so each plan gets its own identically seeded executor."""
        executor, _ = build()
        miss_latency = executor.execute(entry_for(executor, row=20), 0).latency
        executor, _ = build()
        entry = entry_for(executor, row=20)
        for slot in entry.slots:
            executor.capture_baseline(slot)
            slot.done = True
        hit_latency = executor.execute(entry, 0).latency
        assert miss_latency - hit_latency == 2 * TimingConfig().read_cycles
