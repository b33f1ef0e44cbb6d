"""The SD-PCM system facade: wire every substrate together and simulate.

Typical use::

    from repro import SDPCMSystem, SystemConfig
    from repro.core import schemes
    from repro.traces.workload import homogeneous_workload

    config = SystemConfig().with_scheme(schemes.lazyc_preread())
    workload = homogeneous_workload("mcf", cores=8, length=20_000)
    result = SDPCMSystem(config).run(workload)
    print(result.cpi, result.counters.corrections_per_write)

A system instance is single-shot: it owns the cell array, ECP chip,
allocators, controller, and engine for exactly one run, so results are
reproducible from (config, workload) alone.
"""

from __future__ import annotations

import gc
from typing import Optional, Sequence, Tuple

import numpy as np

from ..alloc.nm_alloc import NMAllocManager
from ..alloc.page_table import PageTable
from ..config import SystemConfig
from ..ecp.chip import ECPChip
from ..ecp.wear import WearModel
from ..errors import SimulationError
from ..faults.plan import build_plan
from ..mem.address import AddressMapper
from ..mem.controller import MemoryController
from ..pcm.array import PCMArray
from ..stats.counters import Counters
from ..traces.workload import Workload
from .engine import Engine, EventLoop
from .results import SimulationResult
from .vnc import VnCExecutor


class SDPCMSystem:
    """One fully wired SD-PCM memory system (Figure 6)."""

    def __init__(
        self,
        config: SystemConfig,
        lifetime_fraction: float = 0.0,
        wear_model: Optional[WearModel] = None,
        nm_tags: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        """``nm_tags`` optionally assigns each core its own (n:m) allocator
        (Section 4.4: "an application may demand (n:m) allocation only for
        performance-critical data structures"); cores default to the
        scheme's global ratio."""
        self.config = config
        mem = config.memory
        self.mapper = AddressMapper(
            banks=mem.banks, rows_per_bank=mem.rows_per_bank
        )
        self.array = PCMArray(
            banks=mem.banks, rows_per_bank=mem.rows_per_bank, seed=config.seed
        )
        self.fault_plan = build_plan(config.faults)
        self.ecp = ECPChip(
            entries_per_line=config.scheme.ecp_entries,
            fault_plan=self.fault_plan,
        )
        self.allocator = NMAllocManager(total_frames=mem.total_pages)
        self.counters = Counters()
        self.rng = np.random.default_rng(config.seed)
        self.loop = EventLoop()
        self.lifetime_fraction = lifetime_fraction
        self.wear_model = wear_model
        if nm_tags is not None and len(nm_tags) != config.cores:
            raise SimulationError("one (n:m) tag per core required")
        self.nm_tags = list(nm_tags) if nm_tags is not None else None
        self._ran = False

    def run(self, workload: Workload) -> SimulationResult:
        """Replay a workload; returns the timing result and counters."""
        if self._ran:
            raise SimulationError("an SDPCMSystem instance is single-shot")
        self._ran = True
        config = self.config
        if workload.cores != config.cores:
            raise SimulationError(
                f"workload has {workload.cores} cores, config expects {config.cores}"
            )
        executor = VnCExecutor(
            array=self.array,
            ecp=self.ecp,
            scheme=config.scheme,
            timing=config.timing,
            disturbance=config.disturbance,
            counters=self.counters,
            rng=self.rng,
            flip_fractions=list(workload.flip_fractions),
            lifetime_fraction=self.lifetime_fraction,
            wear_model=self.wear_model,
            fault_plan=self.fault_plan,
        )
        controller = MemoryController(
            memory=config.memory,
            timing=config.timing,
            scheme=config.scheme,
            scheduler=self.loop,
            executor=executor,
            counters=self.counters,
        )
        default_tag = config.scheme.nm_ratio
        tags = self.nm_tags or [default_tag] * config.cores
        page_tables = [
            PageTable(nm_tag=tag, frame_source=self.allocator.allocate_frame)
            for tag in tags
        ]
        engine = Engine(
            config=config,
            workload=workload,
            controller=controller,
            mapper=self.mapper,
            page_tables=page_tables,
            loop=self.loop,
        )
        engine.run()
        executor.publish_counters()
        self.counters.fault_dead_ecp_entries = self.ecp.dead_entries_total
        return SimulationResult(
            workload=workload.name,
            scheme=self._scheme_label(),
            cycles=engine.total_cycles,
            instructions=engine.total_instructions,
            per_core_cpi=[c.cpi for c in engine.cores],
            counters=self.counters,
            read_stall_cycles=sum(c.read_stall_cycles for c in engine.cores),
            wq_stall_cycles=sum(c.wq_stall_cycles for c in engine.cores),
        )

    def _scheme_label(self) -> str:
        s = self.config.scheme
        if s.wd_free_bitlines:
            return "DIN"
        parts = []
        if s.lazy_correction:
            parts.append(f"LazyC(ECP-{s.ecp_entries})")
        if s.preread:
            parts.append("PreRead")
        if s.nm_ratio != (1, 1):
            parts.append(f"({s.nm_ratio[0]}:{s.nm_ratio[1]})")
        if s.write_cancellation:
            parts.append("WC")
        if s.write_pausing:
            parts.append("WP")
        elif s.eager_writes:
            parts.append("eager")
        if not s.low_density_ecp:
            parts.append("denseECP")
        return "+".join(parts) if parts else "baseline-VnC"


def simulate(
    config: SystemConfig,
    workload: Workload,
    lifetime_fraction: float = 0.0,
) -> SimulationResult:
    """One cell's whole life: build a fresh system, replay, release it.

    Reference counting frees what a cell allocates: it leaves next to no
    cyclic garbage at any trace length (tests/test_replay_gc.py).  A
    collection would only walk the cell's live state (or, after it, the
    process's long-lived pools), so the cyclic collector pauses for all
    three steps; the caller's setting is restored.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return SDPCMSystem(config, lifetime_fraction=lifetime_fraction).run(
            workload
        )
    finally:
        if enabled:
            gc.enable()
