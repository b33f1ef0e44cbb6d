"""Property-based tests on the VnC write path (hypothesis).

Random write sequences against a small array must preserve the reliability
invariant regardless of scheme, interleaving, cancellations, or ECP sizing:
after every committed operation, a used line's disturbed cells are exactly
the cells its ECP entries cover (LazyC) or empty (correcting schemes).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DisturbanceConfig, SchemeConfig, TimingConfig
from repro.core.vnc import VnCExecutor
from repro.ecp.chip import ECPChip
from repro.mem.request import WriteEntry
from repro.pcm.array import PCMArray
from repro.stats.counters import Counters

ROWS = 24


def build(scheme: SchemeConfig, seed: int, p_bitline: float):
    array = PCMArray(banks=16, rows_per_bank=ROWS, seed=seed)
    ecp = ECPChip(entries_per_line=scheme.ecp_entries)
    executor = VnCExecutor(
        array=array,
        ecp=ecp,
        scheme=scheme,
        timing=TimingConfig(),
        disturbance=DisturbanceConfig(p_bitline=p_bitline),
        counters=Counters(),
        rng=np.random.default_rng(seed),
        flip_fractions=[0.13],
    )
    return executor, array, ecp


def do_write(executor, bank, row, line, cancel_progress=None):
    entry = WriteEntry(0, (bank, row, line), (1, 1))
    entry.slots = executor.preread_slots(entry)
    plan = executor.execute(entry, 0)
    if cancel_progress is not None:
        executor._cancel(entry, plan, cancel_progress)
    else:
        executor._commit(entry, plan)


def audit(executor, array, ecp) -> None:
    """Every disturbed bit must be covered by ECP unless marked uncovered."""
    for key, _, disturbed in array.disturbed_lines():
        ecp_line = ecp.lines.get(key)
        covered = ecp_line.hard | ecp_line.wd if ecp_line else 0
        pending = executor.uncovered.get(key, 0)
        assert disturbed & ~(covered | pending) == 0


writes = st.lists(
    st.tuples(
        st.integers(0, 3),          # bank
        st.integers(1, ROWS - 2),   # row
        st.integers(0, 3),          # line
        st.floats(0.0, 1.0),        # cancel draw
    ),
    min_size=1,
    max_size=25,
)


class TestInvariantUnderRandomSequences:
    @given(writes, st.integers(0, 50))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lazyc_always_covered(self, script, seed):
        executor, array, ecp = build(
            SchemeConfig(lazy_correction=True, ecp_entries=6), seed, 0.115
        )
        for bank, row, line, _ in script:
            do_write(executor, bank, row, line)
        audit(executor, array, ecp)

    @given(writes, st.integers(0, 50))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_baseline_leaves_nothing(self, script, seed):
        executor, array, ecp = build(SchemeConfig(), seed, 0.115)
        for bank, row, line, _ in script:
            do_write(executor, bank, row, line)
        assert list(array.disturbed_lines()) == []

    @given(writes, st.integers(0, 50))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cancellations_tracked_as_uncovered(self, script, seed):
        """Cancelled partial writes may leave flips, but only ones the
        executor tracks in its uncovered map (retries then resolve them)."""
        executor, array, ecp = build(
            SchemeConfig(lazy_correction=True, ecp_entries=6,
                         write_cancellation=True),
            seed, 0.115,
        )
        for bank, row, line, cancel_draw in script:
            cancel = cancel_draw if cancel_draw < 0.4 else None
            do_write(executor, bank, row, line, cancel_progress=cancel)
        audit(executor, array, ecp)

    @given(writes, st.integers(0, 50))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stored_never_overlaps_disturbed(self, script, seed):
        executor, array, ecp = build(
            SchemeConfig(lazy_correction=True, ecp_entries=2), seed, 0.3
        )
        for bank, row, line, _ in script:
            do_write(executor, bank, row, line)
        for _, stored, disturbed in array.disturbed_lines():
            assert stored & disturbed == 0

    @given(writes, st.integers(0, 30))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_latency_always_bounded(self, script, seed):
        """Composite op latency stays within the analytic worst case."""
        executor, array, ecp = build(SchemeConfig(), seed, 0.115)
        timing = TimingConfig()
        # write (<=4 SET rounds + wl pass) + 2 pre + 2 post reads + cascades.
        upper = 4 * timing.set_cycles + timing.reset_cycles + 4 * timing.read_cycles
        upper += 40 * (timing.read_cycles + 4 * timing.reset_cycles)
        for bank, row, line, _ in script:
            entry = WriteEntry(0, (bank, row, line))
            entry.slots = executor.preread_slots(entry)
            plan = executor.execute(entry, 0)
            assert timing.reset_cycles <= plan.latency <= upper
            executor._commit(entry, plan)
