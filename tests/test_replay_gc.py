"""The replay runs with the cyclic collector paused: it must leave no
cyclic garbage behind, restore the caller's collector state, and keep the
process-wide weak-mask pool invisible to the collector."""

from __future__ import annotations

import gc

import pytest

from repro.core import schemes
from repro.core.engine import Engine
from repro.core.system import SDPCMSystem
from repro.errors import SimulationError
from repro.pcm import stateplane
from tests.conftest import small_config, small_workload

SCHEMES = {
    "baseline": schemes.baseline,
    "lazyc_preread": schemes.lazyc_preread,
    "nm_2_3": lambda: schemes.nm_alloc(2, 3),
    "write_cancellation": schemes.write_cancellation,
    "write_pausing": schemes.write_pausing,
}


def cyclic_garbage(scheme, length: int) -> int:
    """Objects the collector finds unreachable after one cell's replay."""
    workload = small_workload("mcf", length=length)
    config = small_config(scheme)
    gc.collect()
    SDPCMSystem(config).run(workload)
    return gc.collect()


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_cyclic_garbage_does_not_grow_with_trace_length(name):
    scheme = SCHEMES[name]()
    short = cyclic_garbage(scheme, 100)
    long = cyclic_garbage(scheme, 800)
    assert long <= 20 and short <= 20, (short, long)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_collector_state(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        SDPCMSystem(small_config()).run(small_workload(length=50))
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_run_restores_collector_when_replay_raises(monkeypatch):
    def boom(self):
        assert not gc.isenabled()  # the replay itself runs paused
        raise SimulationError("replay failed")

    monkeypatch.setattr(Engine, "run", boom)
    assert gc.isenabled()
    with pytest.raises(SimulationError):
        SDPCMSystem(small_config()).run(small_workload(length=50))
    assert gc.isenabled()


def test_weak_mask_pool_keys_untracked_after_one_collection():
    SDPCMSystem(small_config(schemes.lazyc_preread())).run(
        small_workload("mcf", length=200)
    )
    keys = list(stateplane.PLANE._masks)
    assert keys
    gc.collect()
    assert not any(gc.is_tracked(key) for key in keys)
