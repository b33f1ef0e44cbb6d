"""Hand-computed cycle accounting for scripted scenarios.

These pin the timing model exactly: for deterministic configurations
(zero disturbance probabilities) every latency is computable by hand from Table 2's
numbers, so a regression here means the timing semantics changed.
"""

from __future__ import annotations

import pytest

from repro.config import (
    DisturbanceConfig,
    MemoryConfig,
    SchemeConfig,
    SystemConfig,
    TimingConfig,
)
from repro.core.system import SDPCMSystem
from repro.traces.profiles import profile
from repro.traces.workload import Workload
from tests.conftest import make_trace

READ = 400
RESET = 400
SET = 800


def quiet_config(scheme=None, base_cpi=1.0):
    return SystemConfig(
        cores=1,
        timing=TimingConfig(base_cpi=base_cpi),
        memory=MemoryConfig(),
        disturbance=DisturbanceConfig(p_bitline=0.0, p_wordline=0.0),
        scheme=scheme or SchemeConfig(bitlines="unverified"),
        seed=0,
    )


def run(references, scheme=None, base_cpi=1.0):
    workload = Workload("script", [make_trace(references)], [profile("wrf")])
    return SDPCMSystem(quiet_config(scheme, base_cpi)).run(workload)


class TestReadTiming:
    def test_single_read_finishes_at_read_latency(self):
        res = run([(False, 0, 0)])
        # Issue at t=0, data at t=400, core advances at 400.
        assert res.cycles == READ

    def test_two_reads_same_bank_serialise(self):
        res = run(
            [(False, 0, 0), (False, 64, 0)]
        )
        assert res.cycles == 2 * READ

    def test_gap_adds_base_cpi_cycles(self):
        res = run([(False, 0, 100)], base_cpi=4.0)
        assert res.cycles == 400 * 1 + 100 * 4

    def test_reads_to_different_banks_overlap(self):
        # Pages 0 and 1 map to banks 0 and 1; the in-order core still
        # serialises them (it blocks on each read), so no overlap for one
        # core — this pins the in-order semantics.
        res = run(
            [(False, 0, 0), (False, 4096, 0)]
        )
        assert res.cycles == 2 * READ


class TestWriteTiming:
    def test_posted_write_does_not_block(self):
        """A buffered write costs the core only the 1-cycle issue step."""
        res = run([(True, 0, 0), (False, 4096, 0)])
        # Write posts at t=0 (bank 0); read to bank 1 issues at t=1.
        assert res.cycles == 1 + READ

    def test_read_behind_unrelated_write_same_bank(self):
        """Without VnC and below the drain threshold, the write stays
        buffered: the read proceeds immediately."""
        res = run(
            [(True, 0, 0), (False, 64, 0)],
            scheme=SchemeConfig(bitlines="unverified"),
        )
        # Read to the same line? No - different line (64B offset), same
        # bank. The write is only buffered (not draining), so the read
        # starts at t=1.
        assert res.cycles == 1 + READ

    def test_read_forwarded_from_queue(self):
        res = run([(True, 0, 0), (False, 0, 0)])
        from repro.mem.controller import FORWARD_READ_CYCLES

        assert res.cycles == 1 + FORWARD_READ_CYCLES


class TestVnCTiming:
    def test_drain_write_with_vnc_blocks_read(self):
        """Fill a 2-entry queue so it drains; the next read waits for one
        full VnC composite op."""
        trace = make_trace([
            (True, 0, 0),        # line 0 of page 0 (bank 0)
            (True, 64, 0),       # fills the 2-entry queue: drain
            (False, 64 * 32, 0),  # line 32 of page 0: same bank
        ])
        cfg = SystemConfig(
            cores=1,
            timing=TimingConfig(base_cpi=1.0),
            memory=MemoryConfig(write_queue_entries=2),
            disturbance=DisturbanceConfig(
                p_bitline=0.0, p_wordline=0.0
            ),
            scheme=SchemeConfig(),
            seed=0,
        )
        workload = Workload(
            "script",
            [trace],
            [profile("wrf")],
        )
        res = SDPCMSystem(cfg).run(workload)
        # Page 0 maps to frame 0 = bank 0, row 0 (top edge: one verified
        # neighbour).  The drain starts at t=1 with one VnC op of exactly
        # 1 pre-read + 1 SET-round write + 1 verify read = 1600 cycles; the
        # read issued at t=2 waits for it, then takes 400 cycles.
        assert res.cycles == 1 + (2 * READ + SET) + READ
        c = res.counters
        assert c.drains == 1
        assert c.verifications >= 1

    def test_vnc_op_component_latency(self):
        """Direct check: a clean (error-free) VnC op = 2 pre-reads +
        write rounds + 2 verify reads for an interior row."""
        import numpy as np

        from repro.core.vnc import VnCExecutor
        from repro.ecp.chip import ECPChip
        from repro.mem.request import WriteEntry
        from repro.pcm.array import PCMArray

        array = PCMArray(banks=16, rows_per_bank=8, seed=0)
        executor = VnCExecutor(
            array=array,
            ecp=ECPChip(6),
            scheme=SchemeConfig(),
            timing=TimingConfig(),
            disturbance=DisturbanceConfig(p_bitline=0.0, p_wordline=0.0),
            counters=__import__(
                "repro.stats.counters", fromlist=["Counters"]
            ).Counters(),
            rng=np.random.default_rng(0),
            flip_fractions=[0.12],
        )
        entry = WriteEntry(0, (0, 4, 0))
        entry.slots = executor.preread_slots(entry)
        op = executor.execute(entry, 0)
        # <=128 changed cells with some SETs: exactly one SET round.
        assert op.latency == 4 * READ + SET
