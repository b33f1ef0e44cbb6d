"""End-of-trace quiesce semantics: buffered writes always land."""

from __future__ import annotations

import pytest

from repro.config import MemoryConfig, SchemeConfig, SystemConfig
from repro.core import schemes
from repro.core.system import SDPCMSystem
from repro.pcm import line as L
from repro.traces.profiles import profile
from repro.traces.workload import Workload
from tests.conftest import make_trace


def write_only_workload(writes: int) -> Workload:
    trace = make_trace([(True, i * 64, 0) for i in range(writes)])
    return Workload("w", [trace], [profile("stream")])


class TestQuiesce:
    def test_buffered_writes_flush_after_cores_finish(self):
        """A trace that never fills the queue leaves writes buffered; the
        engine must still flush them so their array effects land."""
        cfg = SystemConfig(
            cores=1,
            memory=MemoryConfig(write_queue_entries=32),
            scheme=SchemeConfig(bitlines="unverified"),
            seed=1,
        )
        system = SDPCMSystem(cfg)
        system.run(write_only_workload(5))
        # All five lines of page 0 were physically written (each line
        # materialised and its payload committed).
        assert {(0, 0, line) for line in range(5)} <= system.array.lines.keys()

    def test_flush_effects_counted(self):
        cfg = SystemConfig(
            cores=1,
            memory=MemoryConfig(write_queue_entries=32),
            scheme=schemes.lazyc(),
            seed=1,
        )
        system = SDPCMSystem(cfg)
        res = system.run(write_only_workload(8))
        c = res.counters
        # Every write's VnC ran even though the core never waited for it.
        assert c.verifications > 0
        assert c.data_cell_writes_demand > 0

    def test_cycles_exclude_flush_tail(self):
        """CPI reflects core-visible time: the posted writes' drain happens
        after the last instruction retires."""
        cfg = SystemConfig(
            cores=1,
            memory=MemoryConfig(write_queue_entries=32),
            scheme=schemes.baseline(),
            seed=1,
        )
        res = SDPCMSystem(cfg).run(write_only_workload(8))
        # 8 posted writes at 1 cycle each: the core finished almost
        # immediately even though the flush took thousands of cycles.
        assert res.cycles <= 16
