"""Event-driven timing engine: in-order cores driving the PCM controller.

Models the paper's CPU side (Table 2): 8 single-issue in-order cores at
4 GHz.  Between two trace records a core retires ``gap`` non-memory
instructions at CPI = 1; a read stalls the core until the controller
returns data; a write deposits into the per-bank write queue and stalls
only when that queue is full.

The engine owns the event loop; the memory controller schedules its
completions on it.  A read hands the controller the core's next issue
as its continuation, which the read's completion pushes: one event,
with no call back into the engine.  Determinism: events at equal times
fire in scheduling order (a monotonically increasing sequence number
breaks ties).  No reference is charged as it goes: the replay's totals
follow from the trace and the finish times, derived once at its end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..alloc.page_table import PageTable
from ..config import LINES_PER_PAGE, SystemConfig
from ..errors import SimulationError
from ..mem.address import AddressMapper
from ..mem.controller import MemoryController
from ..mem.request import WriteEntry
from ..pcm import kernels
from ..traces.record import check_trace
from ..traces.workload import Workload

_heappush = heapq.heappush


class EventLoop:
    """A deterministic discrete-event scheduler: the reference loop.

    Events are ``(time, seq, fn, args)`` heap tuples dispatched as
    ``fn(*args, time)``.  Passing a bound method plus its arguments avoids
    allocating a closure per event — the dominant allocation in the replay
    loop — while single-argument callbacks (``fn(time)``) keep working
    unchanged with empty ``args``.  :meth:`push` takes a ``time`` no
    earlier than ``now`` as given; :meth:`schedule` clamps an earlier one
    to ``now``.

    The compiled kernel backend runs replays on ``NativeEventLoop``
    (see :func:`new_loop`): this class's subclass whose heap, ``push``,
    ``schedule`` and :meth:`drain` are the compiled module's, with the
    same ``(time, seq)`` order.  Both run through this class's
    :meth:`run`, so wrapping ``EventLoop.run`` sees every replay.
    """

    def __init__(self) -> None:
        self.heap: List[tuple] = []
        #: Sequence number of the next event (breaks equal-time ties).
        self.seq = 0
        self.now = 0

    def push(self, time: int, fn: Callable[..., None], args: tuple) -> None:
        seq = self.seq
        self.seq = seq + 1
        _heappush(self.heap, (time, seq, fn, args))

    def schedule(self, time: int, fn: Callable[..., None], *args) -> None:
        if time < self.now:
            time = self.now
        self.push(time, fn, args)

    def run(self) -> None:
        """Dispatch events until none is pending."""
        self.drain()

    def drain(self) -> None:
        heap = self.heap
        pop = heapq.heappop
        while heap:
            time, _, fn, args = pop(heap)
            if time < self.now:
                raise SimulationError("time went backwards")
            self.now = time
            fn(*args, time)

    @property
    def pending(self) -> int:
        return len(self.heap)


#: ``NativeEventLoop`` per compiled base type (a rebuilt module has its own).
_native_loops: Dict[type, type] = {}


def new_loop() -> EventLoop:
    """A fresh event loop for one replay: ``NativeEventLoop`` while the
    active kernel backend offers a compiled loop (``compiled``, until it
    retires), else the reference :class:`EventLoop`."""
    base = kernels.active().native_loop
    if base is None:
        return EventLoop()
    cls = _native_loops.get(base)
    if cls is None:
        cls = _native_loops[base] = type(
            "NativeEventLoop", (base, EventLoop), {"__module__": __name__}
        )
    return cls()


@dataclass(slots=True)
class CoreState:
    """Progress of one in-order core through its trace.

    The trace is held as plain per-reference columns (position ``i`` of
    each list is reference ``i``), built once by the engine.  Only
    write-queue stalls are tallied as they happen; :meth:`Engine.run`
    derives ``instructions`` and ``read_stall_cycles`` at the end.
    """

    index: int
    page_table: PageTable
    is_write: List[bool]
    #: Virtual page and 64 B line within it.
    page: List[int]
    line: List[int]
    #: Non-memory instructions before the reference, and the cycles they
    #: take (``int(gap * base_cpi)``).
    gap: List[int]
    delay: List[int]
    #: Translations seen so far: page -> (bank, row, nm_tag).
    frames: Dict[int, Tuple[int, int, Tuple[int, int]]] = field(
        default_factory=dict
    )
    position: int = 0
    instructions: int = 0
    finish_time: Optional[int] = None
    read_stall_cycles: int = 0
    wq_stall_cycles: int = 0

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def cpi(self) -> float:
        if self.finish_time is None:
            raise SimulationError(f"core {self.index} has not finished")
        if self.instructions == 0:
            return 0.0  # empty trace: finished instantly
        return self.finish_time / self.instructions


class Engine:
    """Replays one workload against a configured memory system."""

    def __init__(
        self,
        config: SystemConfig,
        workload: Workload,
        controller: MemoryController,
        mapper: AddressMapper,
        page_tables: List[PageTable],
        loop: EventLoop,
    ):
        if workload.cores != len(page_tables):
            raise SimulationError("one page table per core required")
        self.config = config
        self.workload = workload
        self.controller = controller
        self.mapper = mapper
        self.loop = loop
        self._push = loop.push
        base_cpi = config.timing.base_cpi
        self.cores = []
        for i, trace in enumerate(workload.traces):
            check_trace(trace)
            address, gap = trace.address, trace.gap
            self.cores.append(CoreState(
                index=i,
                page_table=page_tables[i],
                is_write=trace.is_write.tolist(),
                page=(address >> 12).tolist(),
                line=((address >> 6) % LINES_PER_PAGE).tolist(),
                gap=gap.tolist(),
                delay=(gap * base_cpi).astype(np.int64).tolist(),
            ))

    # -- core state machine ------------------------------------------------------

    def _advance(self, core: CoreState, now: int) -> None:
        """Consume the next trace reference, which issues after its gap,
        or finish the core once none is left."""
        pos = core.position
        if pos >= len(core.gap):
            core.finish_time = now
            return
        core.position = pos + 1
        self._push(now + core.delay[pos], self._on_issue, (core, pos))

    def _issue(self, core: CoreState, pos: int, now: int) -> None:
        """Issue reference ``pos``.

        A read consumes the next reference at once and hands the
        controller that reference's issue as its continuation (or, for
        the core's last reference, ``_advance`` at delay 0, which
        finishes the core), so a read's completion is one event, not a
        call back into the engine.
        """
        page = core.page[pos]
        mapped = core.frames.get(page)
        if mapped is None:
            # First touch of the page: translate (demand-faulting a frame)
            # and range-check the frame once; page tables never remap.
            table = core.page_table
            bank, row = self.mapper.frame_to_bank_row(table.translate(page))
            mapped = core.frames[page] = (bank, row, table.nm_tag)
        bank, row, nm_tag = mapped
        addr = (bank, row, core.line[pos])
        if core.is_write[pos]:
            if self.controller.try_enqueue_write(
                WriteEntry(core.index, addr, nm_tag)
            ):
                self._push(now + 1, self._on_advance, (core,))
            else:
                stall_from = now
                def retry(t: int) -> None:
                    core.wq_stall_cycles += t - stall_from
                    self._issue(core, pos, t)
                self.controller.wait_for_space(bank, retry)
        else:
            nxt = pos + 1
            if nxt < len(core.gap):
                core.position = nxt + 1
                self.controller.enqueue_read(
                    addr, core.delay[nxt], self._on_issue, (core, nxt)
                )
            else:
                self.controller.enqueue_read(
                    addr, 0, self._on_advance, (core,)
                )

    # -- top level ------------------------------------------------------------------

    def run(self) -> None:
        """Replay every core's trace to completion, then flush the queues.

        The two callbacks every reference's events carry are bound once
        here, not once per event; each holds the engine, so the
        ``finally`` drops them to leave no engine <-> method cycle behind.

        Then the totals: a core retires ``sum(gap) + n`` instructions,
        and finishes after its gaps' cycles, one issue cycle per write,
        and its write-queue and read stalls.
        """
        self._on_issue = self._issue
        self._on_advance = self._advance
        try:
            for core in self.cores:
                self.loop.schedule(0, self._on_advance, core)
            self.loop.run()
            unfinished = [c.index for c in self.cores if not c.done]
            if unfinished:
                raise SimulationError(f"cores {unfinished} deadlocked")
            # Drain any writes still buffered (their effects belong in the
            # statistics even though no core waits on them).
            while self.controller.quiesce():
                self.loop.run()
            reads = 0
            for core in self.cores:
                writes = sum(core.is_write)
                reads += len(core.gap) - writes
                core.instructions = sum(core.gap) + len(core.gap)
                core.read_stall_cycles = (core.finish_time - sum(core.delay)
                                          - writes - core.wq_stall_cycles)
            self.controller.publish_counters(reads)
        finally:
            del self._on_issue, self._on_advance

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    @property
    def total_cycles(self) -> int:
        return max(c.finish_time or 0 for c in self.cores)
