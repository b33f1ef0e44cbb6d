"""Tests for per-core (n:m) allocator tags (Section 4.4's priority use case).

"In a real system, an application may demand (n:m) allocation (n != m)
only for performance-critical data structures" — here, one high-priority
core gets (1:2) isolation while the rest run (1:1), all sharing the DIMM.
"""

from __future__ import annotations

import pytest

from repro.core import schemes
from repro.core.system import SDPCMSystem
from repro.errors import SimulationError
from repro.traces.workload import homogeneous_workload
from tests.conftest import small_config


def run_tagged(tags, bench="mcf", length=400, cores=2):
    cfg = small_config(schemes.baseline(), cores=cores)
    wl = homogeneous_workload(bench, cores=cores, length=length, seed=7)
    system = SDPCMSystem(cfg, nm_tags=tags)
    return system.run(wl), system


class TestPerCoreTags:
    def test_tag_count_validated(self):
        cfg = small_config(schemes.baseline())
        with pytest.raises(SimulationError):
            SDPCMSystem(cfg, nm_tags=[(1, 2)])  # 2 cores, 1 tag

    def test_priority_core_generates_no_vnc(self):
        """The (1:2)-tagged core's writes need no verification: all VnC
        work in the mixed run is attributable to the (1:1) core."""
        res, _ = run_tagged([(1, 2), (1, 1)])
        wl = homogeneous_workload("mcf", cores=2, length=400, seed=7)
        core1_writes = int(wl.traces[1].is_write.sum())
        # Each (1:1) write verifies both neighbours; the (1:2) core adds at
        # most a handful of 64 MB block-edge verifications.
        assert res.counters.verifications <= 2 * core1_writes + 8

    def test_mixed_tags_keep_allocations_disjoint(self):
        res, system = run_tagged([(1, 2), (1, 1)])
        # Blocks are handed to (1:2) wholesale, so the two allocators never
        # share a 64 MB block (and hence never abut except at block edges).
        assert (1, 2) in system.allocator._ratios

    def test_uniform_tags_match_global_scheme(self):
        """Tagging every core (2:3) behaves like the global (2:3) scheme."""
        cfg = small_config(schemes.baseline())
        wl = homogeneous_workload("stream", cores=2, length=300, seed=7)
        tagged = SDPCMSystem(cfg, nm_tags=[(2, 3), (2, 3)]).run(wl)
        cfg23 = small_config(schemes.nm_alloc(2, 3))
        globally = SDPCMSystem(cfg23).run(wl)
        # Same verification load (identical strip usage rules).
        assert tagged.counters.verifications == pytest.approx(
            globally.counters.verifications, rel=0.05
        )

    def test_reliability_invariant_holds_mixed(self):
        from tests.test_integration_invariants import audit_system
        from repro.alloc.strips import is_no_use

        res, system = run_tagged([(1, 2), (1, 1)], length=300)
        # Disturbance may persist only in strips that are no-use under the
        # allocator that owns them; everything else must be clean
        # (baseline corrects immediately).
        for addr, _, _ in system.array.disturbed_lines():
            assert is_no_use(addr[1], 1, 2)
