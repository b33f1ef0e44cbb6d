"""Property-based tests on the (n:m) allocator manager."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.alloc.nm_alloc import NMAllocManager
from repro.alloc.strips import PAGES_PER_BLOCK, is_no_use
from repro.config import PAGES_PER_STRIP
from repro.errors import AllocationError

ratios = st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 4), (7, 8)])

#: Allocation-only scripts: a simulated process never frees a page.
script = st.lists(st.tuples(ratios, st.integers(1, 40)), max_size=40)


class TestManagerProperties:
    @given(script)
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_no_double_allocation_and_no_no_use_frames(self, ops):
        mgr = NMAllocManager(total_frames=4 * PAGES_PER_BLOCK)
        live: set = set()
        for (n, m), count in ops:
            for _ in range(count):
                try:
                    frame = mgr.allocate_frame(n, m)
                except AllocationError:
                    break
                assert frame not in live, "frame handed out twice"
                live.add(frame)
                if (n, m) != (1, 1):
                    assert not is_no_use(frame // PAGES_PER_STRIP, n, m)

    @given(script)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_backing_buddy_stays_consistent(self, ops):
        mgr = NMAllocManager(total_frames=4 * PAGES_PER_BLOCK)
        for (n, m), count in ops:
            for _ in range(count):
                try:
                    mgr.allocate_frame(n, m)
                except AllocationError:
                    break
        mgr.backing.check_invariants()

    @given(st.sampled_from([(1, 2), (2, 3), (3, 4)]))
    @settings(max_examples=10, deadline=None)
    def test_cross_ratio_isolation(self, nm):
        """Frames from different ratios never share a 64 MB block."""
        n, m = nm
        mgr = NMAllocManager(total_frames=4 * PAGES_PER_BLOCK)
        a = {mgr.allocate_frame(n, m) // PAGES_PER_BLOCK for _ in range(40)}
        b = {mgr.allocate_frame(1, 1) // PAGES_PER_BLOCK for _ in range(40)}
        assert not (a & b)
