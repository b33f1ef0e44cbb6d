"""Property-based end-to-end tests: random tiny workloads, any scheme.

Whatever the interleaving of reads and writes across cores and banks, the
engine must terminate with every request serviced, monotone time, and
sane counters.  This is the guard against scheduling deadlocks
(lost wakeups on full write queues, cancelled completions, pause/resume)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MemoryConfig, SchemeConfig, SystemConfig
from repro.core import schemes
from repro.core.system import SDPCMSystem
from repro.traces.profiles import profile
from repro.traces.workload import Workload
from tests.conftest import make_trace

record_strategy = st.tuples(
    st.booleans(),                    # is_write
    st.integers(0, 63),               # page
    st.integers(0, 63),               # line
    st.integers(0, 30),               # gap
)

trace_strategy = st.lists(record_strategy, min_size=1, max_size=40)

scheme_strategy = st.sampled_from(
    [
        SchemeConfig(),
        schemes.lazyc(),
        schemes.lazyc_preread(),
        schemes.nm_alloc(2, 3, with_lazyc=True),
        schemes.write_cancellation(),
        schemes.by_name("WP+LazyC"),
        schemes.nm_alloc(1, 2),
    ]
)


def build_workload(raw_traces):
    traces = [
        make_trace([(w, (p * 64 + l) * 64, g) for w, p, l, g in raw])
        for raw in raw_traces
    ]
    return Workload("prop", traces, [profile("stream")] * len(traces))


class TestNoDeadlocks:
    @given(st.lists(trace_strategy, min_size=1, max_size=2), scheme_strategy,
           st.integers(0, 20))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_all_requests_serviced(self, raw_traces, scheme, seed):
        workload = build_workload(raw_traces)
        config = SystemConfig(
            cores=workload.cores,
            memory=MemoryConfig(write_queue_entries=4),
            scheme=scheme,
            seed=seed,
        )
        result = SDPCMSystem(config).run(workload)
        expected_writes = sum(int(t.is_write.sum()) for t in workload.traces)
        assert result.counters.demand_writes == expected_writes
        assert result.counters.demand_reads == (
            sum(len(t) for t in workload.traces) - expected_writes
        )
        assert result.cycles >= 0
        assert all(cpi >= 0 for cpi in result.per_core_cpi)

    @given(trace_strategy, st.integers(0, 10))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tiny_queue_never_deadlocks(self, raw, seed):
        workload = build_workload([raw])
        config = SystemConfig(
            cores=1,
            memory=MemoryConfig(write_queue_entries=1),
            scheme=schemes.lazyc(),
            seed=seed,
        )
        result = SDPCMSystem(config).run(workload)
        assert result.counters.demand_writes + result.counters.demand_reads == len(raw)

    @given(trace_strategy)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_determinism_across_schedulers(self, raw):
        workload = build_workload([raw])
        config = SystemConfig(cores=1, scheme=schemes.lazyc_preread(), seed=5)
        a = SDPCMSystem(config).run(workload)
        b = SDPCMSystem(config).run(workload)
        assert a.cycles == b.cycles
        assert a.counters.bitline_errors == b.counters.bitline_errors
