"""The array's line records after real replays.

Each touched line has one :class:`~repro.pcm.array.LineRecord` holding its
stored image, its outstanding disturbance, its DIN flags and the write
path's per-line memo (weak-cell mask, ECP line, flip pool, epoch).  These
tests replay mcf under the four schemes the benchmark's cell workloads
run and check that every record agrees with the state it memoises.
"""

from __future__ import annotations

import pytest

from repro.core import schemes, system
from repro.core.system import SDPCMSystem, simulate
from repro.pcm import stateplane
from repro.pcm.array import LineRecord, PCMArray
from tests.conftest import small_config, small_workload

SCHEMES = {
    "baseline": schemes.baseline,
    "LazyC": schemes.lazyc,
    "LazyC+PreRead": schemes.lazyc_preread,
    "LazyC+PreRead+(2:3)": schemes.all_combined,
}


def replayed(scheme) -> SDPCMSystem:
    sim = SDPCMSystem(small_config(scheme, cores=4))
    sim.run(small_workload("mcf", cores=4, length=300))
    return sim


@pytest.fixture(scope="module", params=sorted(SCHEMES))
def sim(request) -> SDPCMSystem:
    return replayed(SCHEMES[request.param]())


def test_records_hold_the_invariant(sim):
    records = sim.array.lines
    assert records and all(type(r) is LineRecord for r in records.values())
    for key, record in records.items():
        assert record.stored & record.disturbed == 0, key


def test_weak_masks_are_the_planes(sim):
    fraction = sim.config.disturbance.weak_cell_fraction
    memoised = {k: r.weak for k, r in sim.array.lines.items()
                if r.weak is not None}
    assert memoised
    for key, weak in memoised.items():
        assert weak == stateplane.PLANE.weak_mask(fraction, key), key


def test_ecp_references_are_the_chips_lines(sim):
    linked = {k: r.ecp for k, r in sim.array.lines.items()
              if r.ecp is not None}
    assert linked
    for key, line in linked.items():
        assert line is sim.ecp.lines[key], key


def test_ecp_entries_settle_at_commit(sim):
    """Writes change ECP lines in place; once every op has committed, each
    line's WD entries are cells its record has seen and no hard entry
    holds."""
    for key, record in sim.array.lines.items():
        line = record.ecp
        if line is not None:
            assert line.wd & line.hard == 0, key
            assert line.wd & ~record.seen == 0, key


def test_disturbed_lines_are_the_records_with_flips(sim):
    listed = {key: (stored, disturbed)
              for key, stored, disturbed in sim.array.disturbed_lines()}
    flipped = {key: (r.stored, r.disturbed)
               for key, r in sim.array.lines.items() if r.disturbed}
    assert listed == flipped


def test_back_to_back_cells_share_no_record(monkeypatch):
    """Two cells of one spec give equal results from disjoint records."""
    arrays = []

    class Recorded(PCMArray):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            arrays.append(self)

    monkeypatch.setattr(system, "PCMArray", Recorded)
    config = small_config(schemes.lazyc_preread(), cores=4)
    workload = small_workload("mcf", cores=4, length=300)
    first = simulate(config, workload)
    second = simulate(config, workload)
    assert first == second
    a, b = arrays
    assert a.lines.keys() == b.lines.keys()
    assert not {id(r) for r in a.lines.values()} & {
        id(r) for r in b.lines.values()
    }
