"""The replay's two event loops: the reference ``EventLoop`` and, when
the compiled kernel module builds, ``NativeEventLoop``.

Both must dispatch ``fn(*args, time)`` in ``(time, seq)`` order, clamp
only in ``schedule``, run what a callback pushes, let a callback's
exception through with the other events still queued, refuse time
going backwards, and leave a loop that raised mid-replay to the cyclic
collector.  A cell picks its loop from the active kernel backend.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import random
import weakref

import pytest

from repro.config import SystemConfig
from repro.core import schemes
from repro.core.engine import EventLoop, new_loop
from repro.core.system import SDPCMSystem
from repro.errors import SimulationError
from repro.mem.controller import MemoryController
from repro.pcm import kernels, stateplane
from tests.conftest import small_config, small_workload


@pytest.fixture
def compiled():
    """Activate the compiled backend for one test (skip where it cannot
    build); the previously active backend comes back afterwards."""
    previous = kernels.active_name()
    try:
        backend = kernels.activate("compiled")
    except kernels.BackendUnavailable as exc:
        pytest.skip(f"compiled backend unavailable here: {exc}")
    yield backend
    kernels.activate(previous)


@pytest.fixture(params=["python", "native"])
def make_loop(request):
    """A factory of fresh loops of one kind."""
    if request.param == "python":
        return EventLoop
    request.getfixturevalue("compiled")
    assert type(new_loop()) is not EventLoop
    return new_loop


class TestOrder:
    def test_time_then_push_order_with_equal_time_ties(self, make_loop):
        loop = make_loop()
        rng = random.Random(7)
        times = [rng.randrange(6) for _ in range(300)]
        seen = []
        for index, time in enumerate(times):
            loop.push(time, lambda i, t: seen.append((t, i)), (index,))
        assert loop.pending == len(times)
        loop.run()
        assert seen == sorted((t, i) for i, t in enumerate(times))
        assert loop.pending == 0 and loop.now == max(times)

    def test_args_come_before_the_time(self, make_loop):
        loop = make_loop()
        seen = []
        loop.push(3, lambda *a: seen.append(a), ("a", 1, None))
        loop.schedule(4, lambda *a: seen.append(a), "b")
        loop.schedule(5, lambda *a: seen.append(a))
        loop.push(6, lambda *a: seen.append(a), tuple(range(12)))
        loop.run()
        assert seen == [("a", 1, None, 3), ("b", 4), (5,), (*range(12), 6)]

    def test_schedule_clamps_to_now(self, make_loop):
        loop = make_loop()
        seen = []

        def first(t):
            loop.schedule(t - 100, lambda t2: seen.append(("late", t2)))
            loop.schedule(t, lambda t2: seen.append(("now", t2)))

        loop.schedule(50, first)
        loop.run()
        # The clamped event is due at 50 and was scheduled first.
        assert seen == [("late", 50), ("now", 50)]

    def test_pushes_during_dispatch_run_in_order(self, make_loop):
        loop = make_loop()
        seen = []

        def spawn(tag, t):
            seen.append((tag, t))
            if tag < 3:
                loop.push(t, spawn, (tag + 10,))
                loop.push(t + 1, spawn, (tag + 1,))

        loop.push(0, spawn, (0,))
        loop.push(0, spawn, (100,))
        loop.run()
        assert seen == [
            (0, 0), (100, 0), (10, 0), (1, 1), (11, 1), (2, 2), (12, 2),
            (3, 3),
        ]


class TestErrors:
    def test_callback_exception_propagates_and_keeps_the_rest(
        self, make_loop
    ):
        loop = make_loop()
        boom = ValueError("boom")
        seen = []

        def fail(t):
            raise boom

        loop.push(1, seen.append, ())
        loop.push(2, fail, ())
        loop.push(3, seen.append, ())
        loop.push(3, seen.append, ())
        with pytest.raises(ValueError) as excinfo:
            loop.run()
        assert excinfo.value is boom
        assert seen == [1] and loop.pending == 2 and loop.now == 2
        loop.run()
        assert seen == [1, 3, 3] and loop.pending == 0

    def test_time_going_backwards_raises(self, make_loop):
        loop = make_loop()
        seen = []
        # push does not clamp: an event before ``now`` is an error.
        loop.push(10, lambda t: loop.push(t - 1, seen.append, ()), ())
        with pytest.raises(SimulationError, match="time went backwards"):
            loop.run()
        assert seen == [] and loop.now == 10 and loop.pending == 0

    def test_a_replay_that_raises_is_freed_by_the_collector(
        self, make_loop, monkeypatch
    ):
        """Pending events hold the engine's and controller's bound
        methods, which hold the loop: only the collector frees it."""
        from repro.core import system

        monkeypatch.setattr(system, "new_loop", make_loop)
        calls = []
        enqueue = MemoryController.enqueue_read

        def enqueue_then_fail(self, *args):
            calls.append(None)
            if len(calls) == 40:
                raise RuntimeError("injected")
            return enqueue(self, *args)

        monkeypatch.setattr(MemoryController, "enqueue_read", enqueue_then_fail)

        def replay():
            sim = SDPCMSystem(small_config(schemes.lazyc_preread()))
            ref = weakref.ref(sim.loop)
            with pytest.raises(RuntimeError, match="injected"):
                sim.run(small_workload("bwaves", length=200))
            assert sim.loop.pending > 0
            return ref

        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = replay()
            assert ref() is not None  # the cycle outlives reference counting
            gc.collect()
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


def _loop_and_digest(monkeypatch, name):
    """The loop types one cell ran on under backend ``name``, and the
    digest of its result."""
    loops = []
    run = EventLoop.run

    def recording_run(loop):
        loops.append(type(loop))
        run(loop)

    monkeypatch.setattr(EventLoop, "run", recording_run)
    stateplane.PLANE.reset()
    kernels.activate(name)
    config = SystemConfig(cores=2, seed=3).with_scheme(schemes.lazyc_preread())
    try:
        result = SDPCMSystem(config).run(small_workload("leslie3d", length=300))
    finally:
        stateplane.PLANE.reset()
    monkeypatch.setattr(EventLoop, "run", run)
    return set(loops), hashlib.sha256(pickle.dumps(result)).hexdigest()


def test_each_backend_replays_on_its_loop_with_equal_digests(
    monkeypatch, compiled
):
    native_loops, native = _loop_and_digest(monkeypatch, "compiled")
    python_loops, reference = _loop_and_digest(monkeypatch, "python")
    (native_type,) = native_loops
    assert native_type is not EventLoop and issubclass(native_type, EventLoop)
    assert native_type.drain is not EventLoop.drain
    assert python_loops == {EventLoop}
    assert native == reference
