"""Engine-level stall accounting and queue-pressure behaviour."""

from __future__ import annotations

import pytest

from repro.config import MemoryConfig, SchemeConfig, SystemConfig, TimingConfig
from repro.core import schemes
from repro.core.system import SDPCMSystem
from repro.traces.profiles import profile
from repro.traces.workload import Workload
from tests.conftest import make_trace


def burst_workload(writes: int, gap: int = 0, bench: str = "stream") -> Workload:
    """One core hammering consecutive lines of one page with writes."""
    trace = make_trace([(True, 64 * i, gap) for i in range(writes)])
    return Workload("burst", [trace], [profile(bench)])


def tiny_queue_config(entries: int = 2) -> SystemConfig:
    return SystemConfig(
        cores=1,
        memory=MemoryConfig(write_queue_entries=entries),
        scheme=SchemeConfig(),
        seed=3,
    )


class TestQueuePressure:
    def test_small_queue_stalls_core(self):
        res = SDPCMSystem(tiny_queue_config(2)).run(burst_workload(40))
        assert res.wq_stall_cycles > 0
        assert res.counters.wq_full_stalls > 0

    def test_larger_queue_stalls_less(self):
        small = SDPCMSystem(tiny_queue_config(2)).run(burst_workload(40))
        large = SDPCMSystem(tiny_queue_config(32)).run(burst_workload(40))
        assert large.wq_stall_cycles < small.wq_stall_cycles

    def test_all_writes_complete_despite_pressure(self):
        res = SDPCMSystem(tiny_queue_config(2)).run(burst_workload(64))
        assert res.counters.demand_writes == 64

    def test_zero_gap_back_to_back(self):
        """Zero instruction gaps must not deadlock or skip records."""
        res = SDPCMSystem(tiny_queue_config(4)).run(burst_workload(16, gap=0))
        assert res.counters.demand_writes == 16

    def test_empty_trace_core_finishes(self):
        wl = Workload("idle", [make_trace([])], [profile("wrf")])
        cfg = tiny_queue_config(4)
        res = SDPCMSystem(cfg).run(wl)
        assert res.cycles == 0 or res.instructions == 0


class TestStallAttribution:
    def test_read_stalls_accumulate(self):
        trace = make_trace([(False, 64 * i, 5) for i in range(20)])
        wl = Workload("reads", [trace], [profile("wrf")])
        res = SDPCMSystem(tiny_queue_config(8)).run(wl)
        # Every read stalls at least the raw array latency.
        assert res.read_stall_cycles >= 20 * TimingConfig().read_cycles

    def test_sequential_writes_disturb_and_verify(self):
        res = SDPCMSystem(tiny_queue_config(8)).run(burst_workload(64))
        c = res.counters
        assert c.verifications > 0
        # The burst hits virtual page 0 -> frame 0 -> device row 0, the top
        # edge of the bank: only the bottom neighbour exists, so each write
        # performs exactly one verification.
        assert c.verifications == c.demand_writes
