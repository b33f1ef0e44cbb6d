"""Event-driven timing engine: in-order cores driving the PCM controller.

Models the paper's CPU side (Table 2): 8 single-issue in-order cores at
4 GHz.  Between two trace records a core retires ``gap`` non-memory
instructions at CPI = 1; a read stalls the core until the controller
returns data; a write deposits into the per-bank write queue and stalls
only when that queue is full.

The engine owns the event loop; the memory controller schedules its
completions on it.  Determinism: events at equal times fire in scheduling
order (a monotonically increasing sequence number breaks ties).
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
from ..traces.record import check_trace
from ..traces.workload import Workload

_heappush = heapq.heappush


class EventLoop:
    """A deterministic discrete-event scheduler.

    Events are ``(time, seq, fn, args)`` heap tuples dispatched as
    ``fn(*args, time)``.  Passing a bound method plus its arguments avoids
    allocating a closure per event — the dominant allocation in the replay
    loop — while single-argument callbacks (``fn(time)``) keep working
    unchanged with empty ``args``.

    Hot paths skip :meth:`schedule` and push ``(time, loop.seq, fn,
    args)`` onto ``heap`` themselves, bumping ``seq``; they must pass a
    ``time`` no earlier than ``now`` (``schedule`` clamps, they do not).
    """

    def __init__(self) -> None:
        self.heap: List[tuple] = []
        #: Sequence number of the next event (breaks equal-time ties).
        self.seq = 0
        self.now = 0

    def schedule(self, time: int, fn: Callable[..., None], *args) -> None:
        if time < self.now:
            time = self.now
        seq = self.seq
        self.seq = seq + 1
        _heappush(self.heap, (time, seq, fn, args))

    def run(self) -> None:
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


@dataclass(slots=True)
class CoreState:
    """Progress of one in-order core through its trace.

    The trace is held as plain per-reference columns (position ``i`` of
    each list is reference ``i``), built once by the engine.
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
        """Consume the next trace reference (or finish)."""
        pos = core.position
        if pos >= len(core.gap):
            core.finish_time = now
            return
        core.position = pos + 1
        core.instructions += core.gap[pos] + 1
        loop = self.loop
        seq = loop.seq
        loop.seq = seq + 1
        _heappush(loop.heap, (now + core.delay[pos], seq, self._issue, (core, pos)))

    def _issue(self, core: CoreState, pos: int, now: int) -> None:
        page = core.page[pos]
        mapped = core.frames.get(page)
        if mapped is None:
            # First touch of the page: translate (demand-faulting a frame)
            # and range-check the frame once; page tables never remap.
            entry = core.page_table.translate(page)
            bank, row = self.mapper.frame_to_bank_row(entry.frame)
            mapped = core.frames[page] = (bank, row, entry.nm_tag)
        bank, row, nm_tag = mapped
        addr = (bank, row, core.line[pos])
        if core.is_write[pos]:
            if self.controller.try_enqueue_write(
                WriteEntry(core.index, addr, nm_tag)
            ):
                loop = self.loop
                seq = loop.seq
                loop.seq = seq + 1
                _heappush(loop.heap, (now + 1, seq, self._advance, (core,)))
            else:
                stall_from = now
                def retry(t: int) -> None:
                    core.wq_stall_cycles += t - stall_from
                    self._issue(core, pos, t)
                self.controller.wait_for_space(bank, retry)
        else:
            self.controller.enqueue_read(addr, self._read_done, core, now)

    def _read_done(self, core: CoreState, issued: int, now: int) -> None:
        """A read returned: charge the stall and advance (``_advance``
        inlined, as every read ends here)."""
        core.read_stall_cycles += now - issued
        pos = core.position
        if pos >= len(core.gap):
            core.finish_time = now
            return
        core.position = pos + 1
        core.instructions += core.gap[pos] + 1
        loop = self.loop
        seq = loop.seq
        loop.seq = seq + 1
        _heappush(loop.heap, (now + core.delay[pos], seq, self._issue, (core, pos)))

    # -- top level ------------------------------------------------------------------

    def run(self) -> None:
        """Replay every core's trace to completion, then flush the queues."""
        for core in self.cores:
            self.loop.schedule(0, self._advance, core)
        self.loop.run()
        unfinished = [c.index for c in self.cores if not c.done]
        if unfinished:
            raise SimulationError(f"cores {unfinished} deadlocked")
        # Drain any writes still buffered (their effects belong in the
        # statistics even though no core waits on them).
        while self.controller.quiesce():
            self.loop.run()

    @property
    def total_instructions(self) -> int:
        return sum(c.instructions for c in self.cores)

    @property
    def total_cycles(self) -> int:
        return max(c.finish_time or 0 for c in self.cores)
