"""System-level invariants: reliability guarantees the schemes must keep.

The central safety property of SD-PCM (and of basic VnC) is that *used*
lines never hold undetected disturbance after the write stream settles:
every flipped cell is either physically corrected or covered by an ECP
entry whose value restores the stored bit.  These tests replay real
workloads and then audit the entire materialised array.
"""

from __future__ import annotations

import pytest

from repro.core import schemes
from repro.core.system import SDPCMSystem
from tests.conftest import small_config, small_workload


def audit_system(system: SDPCMSystem) -> dict:
    """Audit every materialised line; returns violation counts."""
    array = system.array
    uncovered_lines = 0
    covered_errors = 0
    physical_errors = 0
    for addr, _, disturbed in array.disturbed_lines():
        n = disturbed.bit_count()
        physical_errors += n
        ecp_line = system.ecp.lines.get(addr)
        covered = ecp_line.hard | ecp_line.wd if ecp_line else 0
        if disturbed & ~covered == 0:
            covered_errors += n
        else:
            uncovered_lines += 1
    return {
        "uncovered_lines": uncovered_lines,
        "covered_errors": covered_errors,
        "physical_errors": physical_errors,
    }


def run_and_audit(scheme, bench="mcf", length=400):
    cfg = small_config(scheme)
    system = SDPCMSystem(cfg)
    system.run(small_workload(bench, cores=2, length=length))
    return audit_system(system)


class TestReliabilityInvariant:
    def test_baseline_leaves_no_errors(self):
        audit = run_and_audit(schemes.baseline())
        assert audit["physical_errors"] == 0

    def test_lazyc_covers_every_error(self):
        audit = run_and_audit(schemes.lazyc())
        assert audit["uncovered_lines"] == 0
        # LazyC intentionally leaves physically disturbed cells, all covered.
        assert audit["covered_errors"] == audit["physical_errors"]

    def test_lazyc_preread_covers_every_error(self):
        audit = run_and_audit(schemes.lazyc_preread())
        assert audit["uncovered_lines"] == 0

    def test_wc_lazyc_covers_every_error(self):
        """Cancelled partial writes must not leak undetected disturbance
        once their retries complete and queues drain."""
        audit = run_and_audit(schemes.wc_lazyc())
        assert audit["uncovered_lines"] == 0

    def test_nm_alloc_no_errors_in_used_strips(self):
        cfg = small_config(schemes.nm_alloc(2, 3, with_lazyc=True))
        system = SDPCMSystem(cfg)
        system.run(small_workload("mcf", cores=2, length=400))
        audit = audit_system(system)
        # Disturbance may persist in no-use strips only; audit sees rows
        # that were materialised for verification, so any disturbed line
        # must be ECP-covered or belong to a no-use strip.
        from repro.alloc.strips import is_no_use

        for addr, _, disturbed in system.array.disturbed_lines():
            ecp_line = system.ecp.lines.get(addr)
            covered = ecp_line.hard | ecp_line.wd if ecp_line else 0
            assert is_no_use(addr[1], 2, 3) or disturbed & ~covered == 0

    def test_din_array_is_pristine(self):
        audit = run_and_audit(schemes.din())
        assert audit["physical_errors"] == 0

    def test_stored_disturbed_never_overlap(self):
        cfg = small_config(schemes.lazyc())
        system = SDPCMSystem(cfg)
        system.run(small_workload("stream", cores=2, length=400))
        for _, stored, disturbed in system.array.disturbed_lines():
            assert stored & disturbed == 0
