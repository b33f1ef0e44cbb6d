"""Tests for the VnC write executor: the SD-PCM write path semantics."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.config import (
    DisturbanceConfig,
    SchemeConfig,
    TimingConfig,
)
from repro.alloc.strips import adjacent_usage, is_no_use
from repro.core.vnc import NOVEL_ENTRY_BITS, PLAN_COUNTERS, VnCExecutor
from repro.ecp.chip import ECPChip
from repro.errors import AllocationError
from repro.mem.request import WriteEntry
from repro.pcm.array import PCMArray
from repro.stats.counters import Counters

TIMING = TimingConfig()


def make_executor(
    scheme: SchemeConfig,
    p_bitline: float = 1.0,
    p_wordline: float = 0.0,
    seed: int = 5,
    rows: int = 64,
    lifetime_fraction: float = 0.0,
):
    array = PCMArray(banks=16, rows_per_bank=rows, seed=seed)
    ecp = ECPChip(entries_per_line=scheme.ecp_entries)
    counters = Counters()
    executor = VnCExecutor(
        array=array,
        ecp=ecp,
        scheme=scheme,
        timing=TIMING,
        disturbance=DisturbanceConfig(
            p_bitline=p_bitline, p_wordline=p_wordline, din_residual_scale=0.0
        ),
        counters=counters,
        rng=np.random.default_rng(seed),
        flip_fractions=[0.12],
        lifetime_fraction=lifetime_fraction,
    )
    return executor, array, ecp, counters


def write_entry(executor, bank=2, row=10, line=3, core=0, nm=(1, 1)):
    entry = WriteEntry(core, (bank, row, line), nm)
    entry.slots = executor.preread_slots(entry)
    return entry


def run_write(executor, entry):
    plan = executor.execute(entry, now=0)
    executor._commit(entry, plan)
    executor.publish_counters()
    return plan


class TestSlots:
    def test_baseline_two_slots(self):
        ex, *_ = make_executor(SchemeConfig())
        entry = write_entry(ex, row=10)
        assert [s.addr[1] for s in entry.slots] == [9, 11]

    def test_din_no_slots(self):
        ex, *_ = make_executor(SchemeConfig(bitlines="wd_free"))
        assert write_entry(ex).slots == []

    def test_top_edge_single_slot(self):
        ex, *_ = make_executor(SchemeConfig())
        entry = write_entry(ex, row=0)
        assert [s.addr[1] for s in entry.slots] == [1]

    def test_1_2_interior_no_slots(self):
        ex, *_ = make_executor(SchemeConfig(nm_ratio=(1, 2)))
        entry = write_entry(ex, row=2, nm=(1, 2))
        assert entry.slots == []

    def test_1_2_block_edge_verifies_top(self):
        ex, *_ = make_executor(SchemeConfig(nm_ratio=(1, 2)), rows=2048)
        entry = write_entry(ex, row=1024, nm=(1, 2))  # first strip of block 2
        assert [s.addr[1] for s in entry.slots] == [1023]

    def test_2_3_one_slot(self):
        ex, *_ = make_executor(SchemeConfig(nm_ratio=(2, 3)))
        entry = write_entry(ex, row=3, nm=(2, 3))  # local 3 % 3 == 0: top used
        assert [s.addr[1] for s in entry.slots] == [2]


    def test_slots_follow_each_writes_own_ratio(self):
        """One executor serving pages of several allocators: the cached
        adjacency is keyed by (row, nm_tag), so interleaved ratios on
        the same rows each get their own Figure 9 answer."""
        rows = 2048
        ex, *_ = make_executor(SchemeConfig(), rows=rows)
        tags = [(1, 1), (2, 3), (1, 2), (1, 4)]
        for _ in range(2):  # cold, then cached
            for row in list(range(0, 13)) + [1022, 1023, 1024, 1025, rows - 1]:
                for nm in tags:
                    if is_no_use(row, *nm):
                        with pytest.raises(AllocationError):
                            write_entry(ex, row=row, nm=nm)
                        continue
                    top, bottom = adjacent_usage(row, *nm)
                    want = [r for r, verify in ((row - 1, top), (row + 1, bottom))
                            if verify and 0 <= r < rows]
                    entry = write_entry(ex, row=row, nm=nm)
                    assert [s.addr[1] for s in entry.slots] == want, (row, nm)


class TestWriteCommit:
    def test_payload_lands_logically(self):
        ex, array, _, _ = make_executor(SchemeConfig(), p_bitline=0.0)
        entry = write_entry(ex)
        run_write(ex, entry)
        addr = entry.addr
        record = array.line(addr)
        decoded = ex.kernels.decode_int(record.stored, record.flags)
        assert decoded == entry.payload_int

    def test_payload_stable_across_retries(self):
        ex, *_ = make_executor(SchemeConfig(), p_bitline=0.0)
        entry = write_entry(ex)
        ex.execute(entry, 0)  # planned but never committed (cancelled)
        payload_first = entry.payload_int
        run_write(ex, entry)
        assert entry.payload_int == payload_first

    def test_epoch_bumped(self):
        ex, array, *_ = make_executor(SchemeConfig(), p_bitline=0.0)
        entry = write_entry(ex)
        key = entry.addr
        run_write(ex, entry)
        assert array.line(key).epoch == 1
        run_write(ex, write_entry(ex))
        assert array.line(key).epoch == 2
        # Victims were read, never written.
        assert [array.line(s.addr).epoch for s in entry.slots] == [0, 0]

    def test_latency_includes_prereads_and_verify(self):
        ex, *_ = make_executor(SchemeConfig(), p_bitline=0.0)
        op = ex.execute(write_entry(ex), 0)
        # 2 pre-reads + write (>=1 round) + 2 verify reads, no corrections.
        assert op.latency >= 4 * TIMING.read_cycles + TIMING.reset_cycles


class TestBaselineCorrection:
    def test_disturbance_corrected_immediately(self):
        ex, array, _, counters = make_executor(SchemeConfig(), p_bitline=1.0)
        entry = write_entry(ex)
        run_write(ex, entry)
        for slot in entry.slots:
            assert array.line(slot.addr).disturbed.bit_count() == 0
        assert counters.corrections >= 1
        assert counters.bitline_errors > 0

    def test_correction_latency_charged(self):
        ex_clean, *_ = make_executor(SchemeConfig(), p_bitline=0.0)
        ex_dirty, *_ = make_executor(SchemeConfig(), p_bitline=1.0)
        clean = ex_clean.execute(write_entry(ex_clean), 0)
        dirty = ex_dirty.execute(write_entry(ex_dirty), 0)
        assert dirty.latency > clean.latency

    def test_no_errors_no_correction(self):
        ex, _, _, counters = make_executor(SchemeConfig(), p_bitline=0.0)
        run_write(ex, write_entry(ex))
        assert counters.corrections == 0
        assert counters.verifications == 2


class TestLazyCorrection:
    def scheme(self, entries=6):
        return SchemeConfig(lazy_correction=True, ecp_entries=entries)

    def test_errors_absorbed_not_corrected(self):
        # With p=1 the error count may exceed ECP-6; use a huge ECP.
        ex, array, ecp, counters = make_executor(self.scheme(512))
        entry = write_entry(ex)
        run_write(ex, entry)
        assert counters.corrections == 0
        assert counters.ecp_absorbed_errors == counters.bitline_errors
        for slot in entry.slots:
            vkey = slot.addr
            line = ecp.lines.get(vkey)
            disturbed = array.line(slot.addr).disturbed.bit_count()
            assert (line.wd.bit_count() if line else 0) == disturbed

    def test_victim_reads_correctly_via_ecp(self):
        ex, array, ecp, _ = make_executor(self.scheme(512))
        entry = write_entry(ex)
        run_write(ex, entry)
        for slot in entry.slots:
            vkey = slot.addr
            line = ecp.lines.get(vkey)
            if line is None:
                continue
            record = array.line(slot.addr)
            stored, disturbed = record.stored, record.disturbed
            # ECP overrides covered cells: WD entries read 0, hard entries
            # read their recorded value.
            covered = line.hard | line.wd
            corrected = (stored | disturbed) & ~covered | line.hard_values
            assert corrected == stored

    def test_overflow_triggers_correction(self):
        ex, array, ecp, counters = make_executor(self.scheme(1))
        entry = write_entry(ex)
        run_write(ex, entry)
        # p=1 disturbs many cells; ECP-1 must overflow and correct.
        assert counters.ecp_overflows >= 1
        assert counters.corrections >= 1
        for slot in entry.slots:
            # Anything left disturbed must fit in (and be covered by) ECP-1.
            remaining = array.line(slot.addr).disturbed.bit_count()
            assert remaining <= 1
            if remaining:
                line = ecp.line(slot.addr)
                disturbed = array.line(slot.addr).disturbed
                assert disturbed & ~(line.hard | line.wd) == 0

    def test_demand_write_clears_own_wd_entries(self):
        ex, array, ecp, counters = make_executor(self.scheme(512))
        entry = write_entry(ex, row=10)
        run_write(ex, entry)
        victim = entry.slots[1].addr  # row 11 accumulated entries
        vkey = victim
        bank, row, line = victim
        before = ecp.lines.get(vkey)
        if before is None or before.wd.bit_count() == 0:
            pytest.skip("no errors sampled into bottom victim")
        # Now write the victim itself: its WD entries must clear.
        run_write(ex, write_entry(ex, row=row, line=line, bank=bank))
        assert ecp.lines.get(vkey).wd.bit_count() == (
            array.line(victim).disturbed.bit_count()
        ) == 0
        assert counters.ecp_cleared_by_write > 0

    def test_error_on_a_hard_cell_after_a_clearing_write(self):
        """Once a demand write has cleared a line's WD entries, a later
        error of the same op on a cell a hard entry holds takes a WD
        entry of its own: it counts as programmed and its novel entry
        wear is charged, and the commit then drops that WD entry (the
        hard entry stays)."""
        ex, array, _, counters = make_executor(self.scheme(6), p_bitline=0.0)
        key = (2, 10, 3)
        record = array.line(key)
        line = ex._ecp_line(key, record)
        hard_cell = 100
        line.add_hard_error(hard_cell, 1)
        assert line.record_wd((1 << 7) | (1 << 9)) == (1 << 7) | (1 << 9)
        entry = write_entry(ex, row=10)
        assert entry.addr == key
        plan = ex.execute(entry, 0)
        assert plan.cleared == [record] and line.wd == 0
        # A victim error of the same op (as a cascade would bring) on the
        # hard entry's cell.
        record.disturbed |= 1 << hard_cell
        ex._handle_errors(ex, plan, ex._totals, key, record, 1 << hard_cell,
                          entry.nm_tag, 1)
        assert line.wd == 1 << hard_cell
        ex._commit(entry, plan)
        ex.publish_counters()
        assert counters.ecp_cleared_by_write == 2
        assert counters.ecp_absorbed_errors == 1
        assert counters.ecp_entries_programmed == 1
        assert counters.ecp_overflows == counters.corrections == 0
        assert counters.ecp_cell_writes_wd == NOVEL_ENTRY_BITS
        assert line.wd == 0 and line.hard == 1 << hard_cell

    def test_hard_errors_reduce_spare_capacity(self):
        ex, _, ecp, counters = make_executor(
            self.scheme(6), lifetime_fraction=1.0
        )
        run_write(ex, write_entry(ex))
        # With end-of-life hard seeding, some lines start partially full.
        seeded = list(ecp.lines.values())
        assert any(line.hard_count > 0 for line in seeded if line)


class TestCancel:
    """Write cancellation [22]: only a scheme that can cancel records
    the injections :meth:`VnCExecutor._cancel` replays."""

    def test_cancel_leaves_uncovered_partial_disturbance(self):
        ex, array, _, counters = make_executor(
            SchemeConfig(read_priority="cancel"), p_bitline=1.0
        )
        entry = write_entry(ex)
        ex._cancel(entry, ex.execute(entry, 0), 0.9)
        assert counters.partial_write_errors > 0
        assert len(ex.uncovered) > 0
        # The retried write detects and handles the partial flips.
        run_write(ex, entry)
        assert not ex.uncovered
        for slot in entry.slots:
            assert array.line(slot.addr).disturbed.bit_count() == 0

    def test_cancel_zero_progress_is_noop(self):
        ex, _, _, counters = make_executor(SchemeConfig(read_priority="cancel"))
        entry = write_entry(ex)
        ex._cancel(entry, ex.execute(entry, 0), 0.0)
        assert counters.partial_write_errors == 0
        assert not ex.uncovered


def plan_counts(counters):
    """The counter fields ops increment, and the Figure 4 histograms."""
    return ({name: getattr(counters, name) for name in PLAN_COUNTERS},
            counters.errors_per_wordline_hist,
            counters.errors_per_adjacent_line_hist)


class TestCounting:
    """An op's counts reach :class:`Counters` exactly once: most schemes
    add them in place, a cancellable op keeps them apart until it
    commits, and the totals are published once per replay."""

    @pytest.mark.parametrize("priority", ["drain", "pause", "cancel"])
    def test_committed_op_counts_once(self, priority):
        ex, _, _, counters = make_executor(
            SchemeConfig(read_priority=priority), p_bitline=0.0
        )
        run_write(ex, write_entry(ex))
        assert counters.pre_write_reads == 2
        assert counters.verify_reads == counters.verifications == 2
        assert counters.data_cell_writes_demand == (
            counters.ecp_cell_writes_background) > 0
        assert sum(counters.errors_per_wordline_hist.values()) == 1
        assert sum(counters.errors_per_adjacent_line_hist.values()) == 2

    def test_cancelled_at_zero_progress_counts_nothing(self):
        ex, _, _, counters = make_executor(
            SchemeConfig(read_priority="cancel", lazy_correction=True)
        )
        entry = write_entry(ex)
        ex._cancel(entry, ex.execute(entry, 0), 0.0)
        ex.publish_counters()
        totals, wordline, adjacent = plan_counts(counters)
        assert not any(totals.values()) and not wordline and not adjacent
        # The retried write then counts once.
        run_write(ex, entry)
        assert counters.verifications == 2

    def test_paused_then_resumed_op_counts_once(self):
        """A paused op commits after a later op; it counts the same as
        when the two commit in plan order."""
        scheme = SchemeConfig(read_priority="pause", lazy_correction=True)
        results = []
        for paused_first in (False, True):
            ex, _, _, counters = make_executor(scheme, p_bitline=0.5)
            first, second = write_entry(ex, row=10), write_entry(ex, bank=3)
            plans = [ex.execute(first, 0), ex.execute(second, 0)]
            order = [(second, plans[1]), (first, plans[0])] if paused_first \
                else [(first, plans[0]), (second, plans[1])]
            for entry, plan in order:
                ex._commit(entry, plan)
            ex.publish_counters()
            assert counters.verifications == 4
            results.append(plan_counts(counters))
        assert results[0] == results[1]

    def test_second_publish_adds_nothing(self):
        ex, _, _, counters = make_executor(
            SchemeConfig(lazy_correction=True), p_bitline=0.5
        )
        run_write(ex, write_entry(ex))
        once = asdict(counters)
        assert once["bitline_errors"] > 0
        ex.publish_counters()
        assert asdict(counters) == once


def line_states(array, ecp):
    """Every touched line's ``(stored, disturbed, flags, epoch)`` and
    every ECP line's WD mask."""
    records = {key: (r.stored, r.disturbed, r.flags, r.epoch)
               for key, r in array.lines.items()}
    return records, {key: line.wd for key, line in ecp.lines.items()}


def untouched(key):
    """The state of a line no write has touched (``make_executor``'s array)."""
    return PCMArray(banks=16, rows_per_bank=64, seed=5).line(key).stored, 0, 0, 0


class TestCancelUndo:
    """A cancelled op's undo log restores every line it changed."""

    def prepared(self):
        """A LazyC write-cancellation executor whose second write (to a
        line holding WD entries, so the demand write clears them) is
        planned but not yet completed."""
        scheme = SchemeConfig(read_priority="cancel", lazy_correction=True)
        ex, array, ecp, _ = make_executor(
            scheme, p_bitline=0.5, lifetime_fraction=0.5
        )
        run_write(ex, write_entry(ex, row=10))
        victim = next(key for key, line in ecp.lines.items() if line.wd)
        entry = write_entry(ex, bank=victim[0], row=victim[1], line=victim[2])
        before = line_states(array, ecp)
        plan = ex.execute(entry, 0)
        assert line_states(array, ecp) != before  # applied in place
        return ex, array, ecp, entry, plan, before

    def test_zero_progress_restores_everything(self):
        ex, array, ecp, entry, plan, (records, wds) = self.prepared()
        ex._cancel(entry, plan, 0.0)
        after_records, after_wds = line_states(array, ecp)
        # Lines first touched by the op read their pristine image again.
        for key, state in after_records.items():
            assert state == (records.get(key) or untouched(key)), key
        for key, wd in after_wds.items():
            assert wd == wds.get(key, 0), key

    def test_partial_progress_differs_only_by_partial_disturbance(self):
        ex, array, ecp, entry, plan, (records, wds) = self.prepared()
        injected = dict(plan.injections)
        ex._cancel(entry, plan, 0.9)
        after_records, after_wds = line_states(array, ecp)
        assert ex.counters.partial_write_errors > 0
        for key, (stored, disturbed, flags, epoch) in after_records.items():
            was = records.get(key) or untouched(key)
            assert (stored, flags, epoch) == (was[0], was[2], was[3]), key
            assert disturbed & was[1] == was[1], key
            assert disturbed & ~was[1] & ~injected.get(key, 0) == 0, key
        for key, wd in after_wds.items():
            assert wd == wds.get(key, 0), key


class TestDisturbanceDisabled:
    def test_din_chip_never_disturbs(self):
        ex, array, _, counters = make_executor(
            SchemeConfig(bitlines="wd_free"), p_bitline=1.0
        )
        entry = write_entry(ex)
        run_write(ex, entry)
        assert counters.bitline_errors == 0
        assert counters.verifications == 0

    def test_unprotected_mode_accumulates_uncovered(self):
        ex, array, _, counters = make_executor(
            SchemeConfig(bitlines="unverified"), p_bitline=1.0
        )
        entry = write_entry(ex)
        run_write(ex, entry)
        assert counters.bitline_errors > 0
        assert counters.corrections == 0
        assert ex.uncovered  # injected but undetected
