"""The replay's derived totals equal an independent per-read tally.

The engine charges no reference as it goes: when the replay ends, each
core's ``instructions`` and ``read_stall_cycles`` and the controller's
``demand_reads`` and ``total_read_busy_cycles`` are derived from the
trace and the finish times.  These tests tally the same quantities from
outside while the replay runs, by wrapping the controller's entry points:
every read's issue and completion time (through the continuation it is
handed) and every write-queue stall (from the rejected write to the
wake-up), and check the derived totals against that tally for every
named scheme, on a write-heavy and a read-heavy bench, with the default
write queue and with an 8-entry one that fills (drains and
``wait_for_space`` fire).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest

from repro.config import MemoryConfig
from repro.core import schemes
from repro.core.engine import Engine
from repro.core.system import SDPCMSystem
from repro.mem.controller import MemoryController
from tests.conftest import small_config, small_workload

BENCHES = ("mcf", "bwaves")  # 48% and under 3% writes
QUEUES = (None, 8)  # the default write queue, and one that fills


class Tally:
    """What the wrapped entry points saw, per core."""

    def __init__(self) -> None:
        self.read_stall = defaultdict(int)
        self.wq_stall = defaultdict(int)
        self.reads = 0
        self.forwarded = 0
        self.rejected = {}


def replay(monkeypatch, scheme_name, bench, wq):
    tally = Tally()
    engines = []
    enqueue_read = MemoryController.enqueue_read
    try_enqueue_write = MemoryController.try_enqueue_write
    wait_for_space = MemoryController.wait_for_space
    run = Engine.run

    def traced_read(self, addr, delay, on_done, args=()):
        issued = self.scheduler.now
        core = args[0].index
        read_cycles = self.timing.read_cycles

        def completed(*event):
            latency = event[-1] - delay - issued
            tally.read_stall[core] += latency
            # Only a forwarded read returns sooner than an array read.
            tally.forwarded += latency < read_cycles
            on_done(*event)

        tally.reads += 1
        enqueue_read(self, addr, delay, completed, args)

    def traced_write(self, entry):
        accepted = try_enqueue_write(self, entry)
        if not accepted:
            tally.rejected[self] = (entry.core, self.scheduler.now)
        return accepted

    def traced_wait(self, bank_index, waiter):
        core, since = tally.rejected.pop(self)

        def woke(t):
            tally.wq_stall[core] += t - since
            waiter(t)

        wait_for_space(self, bank_index, woke)

    def traced_run(self):
        engines.append(self)
        run(self)

    monkeypatch.setattr(MemoryController, "enqueue_read", traced_read)
    monkeypatch.setattr(MemoryController, "try_enqueue_write", traced_write)
    monkeypatch.setattr(MemoryController, "wait_for_space", traced_wait)
    monkeypatch.setattr(Engine, "run", traced_run)
    config = small_config(schemes.by_name(scheme_name), cores=2)
    if wq is not None:
        config = replace(config, memory=MemoryConfig(write_queue_entries=wq))
    workload = small_workload(bench, cores=2, length=400)
    result = SDPCMSystem(config).run(workload)
    return config, workload, result, engines[0], tally


@pytest.mark.parametrize("wq", QUEUES)
@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("scheme_name", sorted(schemes.SCHEMES))
def test_derived_totals_equal_the_tally(monkeypatch, scheme_name, bench, wq):
    config, workload, result, engine, tally = replay(
        monkeypatch, scheme_name, bench, wq)
    assert not tally.rejected
    for core, trace in zip(engine.cores, workload.traces):
        assert core.instructions == len(trace) + int(trace.gap.sum())
        assert core.wq_stall_cycles == tally.wq_stall[core.index]
        assert core.read_stall_cycles == tally.read_stall[core.index]
    counters = result.counters
    assert result.instructions == workload.total_instructions
    assert result.read_stall_cycles == sum(tally.read_stall.values())
    assert counters.demand_reads == tally.reads
    assert counters.wq_forwarded_reads == tally.forwarded
    assert counters.total_read_busy_cycles == (
        (tally.reads - tally.forwarded) * config.timing.read_cycles)


def test_the_tally_sees_every_term_of_the_derivation(monkeypatch):
    """On the write-heavy bench with the small queue, the cases above
    exercise every term: writes, write-queue stalls, forwarded reads."""
    _, _, result, _, tally = replay(monkeypatch, "LazyC", "mcf", 8)
    assert result.counters.demand_writes
    assert result.counters.wq_full_stalls > 0
    assert sum(tally.wq_stall.values()) > 0
    assert tally.forwarded > 0
