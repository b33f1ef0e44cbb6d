"""Span tracing around the repository's layer boundaries.

The traced run wraps public (and a few commit-path) callables of each
layer with :class:`Tracer` spans.  Nothing in ``src/`` changes: wrappers
are installed on the imported classes and modules at run time, before
the timed span starts, so every object the workload builds afterwards
dispatches through them.

A span's *self time* is its duration minus the time covered by its child
spans.  The timed span of the workload is the root; its self time is the
``unattributed`` remainder.  The self times of all spans therefore add up
to the traced wall time by construction.

Pool workers are forked from the traced process and inherit the wrappers;
a fork hook switches tracing off in every child, so the wrappers there
only forward the call.  Simulation time inside workers is read from the
``PROFILER`` phases the workers already return with each result.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: Layers in reporting order.  A span belongs to the layer whose name is
#: the longest dotted prefix of the span name.
LAYERS = (
    "experiments",
    "perf.engine",
    "perf.cache",
    "traces",
    "core.system",
    "core.engine",
    "mem.controller",
    "core.vnc",
    "pcm.kernels",
    "ecp",
    "pcm.stateplane",
)

#: Bit-kernel backend methods (the ``KernelBackend`` interface).
KERNEL_METHODS = (
    "sample_mask_int",
    "sample_masks_int",
    "sample_masks_rows",
    "write_phase_batch",
    "popcount_rows",
    "bit_positions_int",
    "encode_stored_int",
    "decode_int",
    "encode_stored_rows",
    "decode_rows",
    "mask_from_draws",
)

#: The layers that carry a write's VnC work, and the event loop plus
#: controller: the two groups whose shares the cell workloads contrast.
VNC_GROUP = ("core.vnc", "pcm.kernels", "ecp", "pcm.stateplane")
LOOP_GROUP = ("core.engine", "mem.controller")

#: ``engine.STATS`` counters reported per run: resolution paths and the
#: execution choices (planner mode, kernel backend, fused or not).
ENGINE_COUNTERS = (
    "simulated",
    "cache_hits",
    "deduplicated",
    "prefetched",
    "inflight_hits",
    "batch_dispatches",
    "pool_reuses",
    "planner_serial_picks",
    "planner_pool_picks",
    "planner_batch_picks",
    "kernel_python_picks",
    "kernel_numpy_picks",
    "kernel_compiled_picks",
    "kernel_fused_picks",
)


def per_layer_spec(experiments):
    """Every per-layer metric as ``(name, unit, better)``.

    ``experiments.<name>.s`` is inclusive time; every other ``.s`` and
    ``.self_s`` is self time.  ``model.*`` are simulated quantities.
    """
    spec = [(f"experiments.{name}.s", "s", "lower") for name in experiments]
    spec.append(("experiments.render.s", "s", "lower"))
    spec += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    spec += [
        ("unattributed.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_cells_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
        ("share.vnc_group", "ratio", "lower"),
        ("share.loop_controller", "ratio", "lower"),
        ("perf.engine.run_cells.calls", "count", "lower"),
        ("perf.engine.requested", "count", "higher"),
    ]
    spec += [(f"perf.engine.{name}", "count",
              "higher" if name in ("cache_hits", "deduplicated", "inflight_hits",
                                   "pool_reuses") else "lower")
             for name in ENGINE_COUNTERS]
    spec.append(("perf.engine.simulated_per_requested", "ratio", "lower"))
    for method in ("load", "store_async", "flush", "cache_key"):
        spec += [(f"perf.cache.{method}.calls", "count", "lower"),
                 (f"perf.cache.{method}.s", "s", "lower")]
    spec += [
        ("perf.cache.contains.calls", "count", "lower"),
        ("perf.cache.hit_ratio", "ratio", "higher"),
        ("traces.workload_for.calls", "count", "lower"),
        ("traces.workload_for.s", "s", "lower"),
        ("traces.publish.calls", "count", "lower"),
        ("traces.plane_segments", "count", "lower"),
        ("traces.plane_reuses", "count", "higher"),
    ]
    for method in ("init", "run"):
        spec += [(f"core.system.{method}.calls", "count", "lower"),
                 (f"core.system.{method}.s", "s", "lower")]
    spec.append(("core.engine.loop_run.calls", "count", "lower"))
    spec += [(f"mem.controller.{method}.calls", "count", "lower")
             for method in ("enqueue_read", "try_enqueue_write", "wait_for_space")]
    for method in ("execute", "preread_slots", "capture_baseline", "commit"):
        spec += [(f"core.vnc.{method}.calls", "count", "lower"),
                 (f"core.vnc.{method}.s", "s", "lower")]
    spec += [(f"pcm.kernels.{method}.calls", "count", "lower")
             for method in KERNEL_METHODS]
    spec += [
        ("ecp.line.calls", "count", "lower"),
        ("pcm.stateplane.row_hit_ratio", "ratio", "higher"),
        ("pcm.stateplane.mask_hit_ratio", "ratio", "higher"),
        ("pcm.stateplane.pristine_row.calls", "count", "lower"),
        ("pcm.stateplane.weak_mask.calls", "count", "lower"),
        ("profiler.simulate_s", "s", "lower"),
        ("profiler.trace_gen_s", "s", "lower"),
        ("model.cycles", "cycles", "lower"),
        ("model.demand_writes", "count", "lower"),
        ("model.corrections", "count", "lower"),
        ("model.verify_reads", "count", "lower"),
        ("model.preread_hits", "count", "higher"),
        ("model.ecp_absorbed_errors", "count", "higher"),
        ("sim_refs_per_s", "1/s", "higher"),
        ("error_rate", "ratio", "lower"),
        ("paper_checks_passed", "count", "higher"),
    ]
    return spec


class Tracer:
    """Nested spans aggregated by name: calls, inclusive and self seconds.

    Spans opened with ``keep=True`` are also stored as
    ``(name, start, end, parent)`` records; hot-path spans are only
    aggregated, so a long traced run holds a bounded amount of memory.
    Spans must open and close on one thread (every wrapped callable runs
    on the main thread).  Wrappers record only while ``enabled`` is set,
    which ``run.py`` does for the timed region alone.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.records: List[Tuple[str, float, float, str]] = []
        self._stack: List[list] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _close(self, frame: list, start: float, end: float, keep: bool) -> None:
        name, child = frame
        stack = self._stack
        stack.pop()
        elapsed = end - start
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_s[name] += elapsed - child
        if stack:
            stack[-1][1] += elapsed
        if keep:
            self.records.append(
                (name, start, end, stack[-1][0] if stack else "")
            )

    @contextmanager
    def span(self, name: str, keep: bool = True):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter(), keep)

    def wrap(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, perf(), keep)

        return traced

    def patch(self, owner, attr: str, name: str, keep: bool = False) -> None:
        """Replace ``owner.attr`` with a traced wrapper."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), keep))

    def layer_self(self) -> Dict[str, float]:
        """Self seconds summed per layer (spans outside every layer are
        left out: the root reports them as ``unattributed``)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = layer_of(name)
            if layer is not None:
                out[layer] += seconds
        return out


def layer_of(span_name: str):
    best = None
    for layer in LAYERS:
        if span_name.startswith(layer + ".") and (
            best is None or len(layer) > len(best)
        ):
            best = layer
    return best


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the traced run reports on.

    Experiment entry points are wrapped by ``run.py`` itself (it groups
    cell results per experiment in untraced runs too).
    """
    from repro.core.engine import EventLoop
    from repro.core.system import SDPCMSystem
    from repro.core.vnc import VnCExecutor
    from repro.ecp.chip import ECPChip
    from repro.experiments import common, export, runner
    from repro.mem.controller import MemoryController
    from repro.pcm.kernels import (
        base, compiled_backend, numpy_backend, python_backend,
    )
    from repro.pcm.stateplane import StatePlane
    from repro.perf import batch, cache, engine
    from repro.traces import shm

    patch = tracer.patch
    patch(common.ExperimentResult, "render", "experiments.render")
    patch(export, "write_json", "experiments.export")
    patch(runner, "collect_sweep_specs", "experiments.planning", keep=True)
    patch(runner, "mark_completed", "experiments.checkpoint")
    patch(runner, "save_manifest", "experiments.checkpoint")

    patch(engine.CellRunner, "run_cells", "perf.engine.run_cells", keep=True)
    patch(engine.CellRunner, "prefetch", "perf.engine.prefetch", keep=True)
    # The engine and the batch module each bound ``simulate_cell`` by name.
    patch(engine, "simulate_cell", "perf.engine.simulate_cell")
    patch(batch, "simulate_cell", "perf.engine.simulate_cell")

    patch(engine, "cache_key", "perf.cache.cache_key")
    for method in ("load", "contains", "store_async", "flush"):
        patch(cache.ResultCache, method, f"perf.cache.{method}")

    patch(shm, "workload_for", "traces.workload_for")
    patch(shm.TracePlane, "handle_for", "traces.publish")

    patch(SDPCMSystem, "__init__", "core.system.init")
    patch(SDPCMSystem, "run", "core.system.run")

    patch(EventLoop, "run", "core.engine.loop_run")
    for method in ("enqueue_read", "try_enqueue_write", "wait_for_space"):
        patch(MemoryController, method, f"mem.controller.{method}")

    for method in ("execute", "preread_slots", "capture_baseline"):
        patch(VnCExecutor, method, f"core.vnc.{method}")
    # The WriteOp an execute() returns calls back into these when the
    # controller finishes or cancels the write.
    patch(VnCExecutor, "_commit", "core.vnc.commit")
    patch(VnCExecutor, "_cancel", "core.vnc.cancel")

    for cls in (base.KernelBackend, python_backend.PythonBackend,
                numpy_backend.NumpyBackend, compiled_backend.CompiledBackend):
        for method in KERNEL_METHODS:
            if method in vars(cls):
                patch(cls, method, f"pcm.kernels.{method}")

    patch(ECPChip, "line", "ecp.line")
    patch(StatePlane, "pristine_row", "pcm.stateplane.pristine_row")
    patch(StatePlane, "weak_mask", "pcm.stateplane.weak_mask")
