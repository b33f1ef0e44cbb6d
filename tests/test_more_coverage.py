"""Additional coverage: figure-5 configs, multi-block (n:m) refills,
wear-model shape."""

from __future__ import annotations

import pytest

from repro.alloc.nm_alloc import NMAllocManager
from repro.alloc.strips import PAGES_PER_BLOCK, STRIPS_PER_BLOCK, is_no_use
from repro.config import LINE_BITS, PAGES_PER_STRIP
from repro.ecp.wear import WearModel
from repro.experiments.figure5 import unprotected, verification_only


class TestFigure5Configs:
    def test_unprotected_has_no_vnc(self):
        assert unprotected().bitlines == "unverified"

    def test_verification_only_never_overflows(self):
        scheme = verification_only()
        assert scheme.lazy_correction
        assert scheme.ecp_entries == LINE_BITS  # one entry per cell


class TestMultiBlockRefill:
    def test_second_block_pulled_when_first_exhausts(self):
        mgr = NMAllocManager(total_frames=4 * PAGES_PER_BLOCK)
        usable_per_block = PAGES_PER_BLOCK // 2  # (1:2)
        frames = [mgr.allocate_frame(1, 2) for _ in range(usable_per_block + 1)]
        blocks = {f // PAGES_PER_BLOCK for f in frames}
        assert len(blocks) == 2

    def test_blocks_are_64mb_aligned(self):
        """Each refill pulls a whole aligned block; (2:3) uses its first
        strip, so a block's first frame is the block's base."""
        mgr = NMAllocManager(total_frames=4 * PAGES_PER_BLOCK)
        used = sum(not is_no_use(s, 2, 3) for s in range(STRIPS_PER_BLOCK))
        frames = [mgr.allocate_frame(2, 3)
                  for _ in range(used * PAGES_PER_STRIP + 1)]
        assert frames[0] % PAGES_PER_BLOCK == 0
        assert frames[-1] % PAGES_PER_BLOCK == 0
        assert frames[-1] != frames[0]


class TestWearModelShape:
    def test_growth_is_superlinear(self):
        model = WearModel()
        half = model.mean_hard_errors(0.5)
        full = model.mean_hard_errors(1.0)
        assert half < full / 2  # convex growth: failures cluster late

    def test_custom_exponent(self):
        linear = WearModel(growth_exponent=1.0)
        assert linear.mean_hard_errors(0.5) == pytest.approx(1.0)
