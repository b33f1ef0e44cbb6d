"""Determinism of hard-error seeding across lifetime fractions.

The Figure 14 sweep isolates the hard-error effect because seeding uses a
dedicated per-line RNG stream: two runs at the same lifetime fraction are
identical, and runs at different fractions share the same disturbance
sample path wherever hard errors don't interfere.
"""

from __future__ import annotations

import pytest

from repro.core import schemes
from repro.core.system import SDPCMSystem
from tests.conftest import small_config, small_workload


def run(lifetime: float, seed: int = 7):
    cfg = small_config(schemes.lazyc())
    wl = small_workload("mcf", cores=2, length=300, seed=seed)
    return SDPCMSystem(cfg, lifetime_fraction=lifetime).run(wl)


class TestLifetimeSeeding:
    def test_same_fraction_reproducible(self):
        a = run(0.75)
        b = run(0.75)
        assert a.cycles == b.cycles
        assert a.counters.ecp_overflows == b.counters.ecp_overflows

    def test_fresh_run_unaffected_by_seeding_machinery(self):
        """lifetime 0.0 takes the fast path: no per-line seeding at all."""
        a = run(0.0)
        b = run(0.0)
        assert a.cycles == b.cycles

    def test_aged_run_has_hard_occupancy(self):
        cfg = small_config(schemes.lazyc())
        wl = small_workload("mcf", cores=2, length=300, seed=7)
        system = SDPCMSystem(cfg, lifetime_fraction=1.0)
        system.run(wl)
        hard = sum(
            line.hard_count for line in system.ecp.lines.values()
        )
        assert hard > 0

    def test_more_age_more_overflows(self):
        """End-of-life occupancy leaves fewer spares: overflow corrections
        can only go up (statistically; generous tolerance)."""
        fresh = run(0.0)
        aged = run(1.0)
        assert (
            aged.counters.ecp_overflows
            >= fresh.counters.ecp_overflows
        )
