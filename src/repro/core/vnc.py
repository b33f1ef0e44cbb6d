"""Verify-and-Correct write execution, with SD-PCM's three schemes.

This is the write path of Figure 6's memory controller.  For every demand
write popped off a write queue it plans one *composite operation*:

1. **pre-write reads** of the adjacent lines that hold data (skipped when
   PreRead already buffered them, or a queued write forwarded them),
2. the **differential write** itself (DIN-encoded against word-line WD),
3. bit-line **disturbance injection** into the adjacent lines (the physics,
   sampled from the Table 1 model),
4. **verification reads** of the adjacent lines and detection of new errors,
5. **LazyCorrection** (buffer errors in spare ECP entries) or a
   **correction write**, whose RESET pulses can disturb *its* neighbours and
   cascade (Section 3.2) until a verification pass comes back clean.

Planning is pure: all sampling happens up front against shadow line states,
and ``execute`` returns the plan, which the controller hands back once:
``_commit`` applies every mutation (write cancellation instead calls
``_cancel``, which applies only the partial disturbance of the pulses
already fired).  Committed plans' counter increments accumulate in the
executor and reach :class:`~repro.stats.counters.Counters` once, through
:meth:`VnCExecutor.publish_counters`, when the replay ends.

Everything works in the **int domain** (512-bit integers, see
:mod:`repro.pcm.line`): the array stores each touched line as ints, and
shadow states, masks, and sampling all use Python big-integer bitwise
ops, which beat 8-word numpy ufuncs by 3-10x on this size.  All RNG draws
happen in the same order and with the same counts as the original
array-domain implementation, so results are bit-identical.  Line keys
are plain :data:`~repro.pcm.array.LineAddress` tuples ``(bank, row, line)``.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..alloc.strips import adjacent_usage, is_no_use
from ..config import LINE_BITS, DisturbanceConfig, SchemeConfig, TimingConfig
from ..ecp.chip import ECPChip
from ..ecp.wear import WearModel
from ..errors import ECPExhaustedError, SimulationError
from ..faults.plan import FaultPlan
from ..mem.request import PrereadSlot, WriteEntry
from ..pcm import kernels
from ..pcm import line as L
from ..pcm import stateplane
from ..pcm.array import LineAddress, PCMArray
from ..pcm.differential_write import correction_latency, rounds_latency
from ..pcm.din import wordline_vulnerable_mask_int

#: Safety valve on correction cascades.  At the paper's disturbance rates a
#: correction RESETs only a handful of cells, so cascades die out within a
#: couple of levels and this cap is unreachable; it exists for stress
#: configurations (p ~ 1) where each correction re-disturbs both
#: neighbours and the recursion would otherwise fan out exponentially.
MAX_CASCADE_DEPTH = 8

#: ECP-chip cell writes for a *novel* entry (9-bit pointer + value).
#: Re-buffering a position the line's ECP region has held before programs
#: identical bits — differential write applies inside the ECP chip too, so
#: repeats cost no cell changes.  Real workloads disturb the same weak
#: cells repeatedly, which is why the paper sees only ~8% ECP-chip wear
#: (Figure 18) despite ~4 buffered errors per write.
NOVEL_ENTRY_BITS = 10
REPEAT_ENTRY_BITS = 0


#: The :class:`~repro.stats.counters.Counters` fields a plan accumulates,
#: in slot order: ``_Plan.counts[i]`` is the pending increment of field
#: ``PLAN_COUNTERS[i]``; ``_commit`` adds the slots to the executor's
#: totals, which :meth:`VnCExecutor.publish_counters` writes out.
PLAN_COUNTERS = (
    "data_cell_writes_demand", "ecp_cell_writes_background",
    "wordline_vulnerable_cells", "wordline_errors", "ecp_cleared_by_write",
    "uncorrectable_bits", "preread_hits", "preread_stale", "pre_write_reads",
    "bitline_vulnerable_cells", "bitline_errors", "drift_flips",
    "verify_reads", "verifications", "ecp_absorbed_errors",
    "ecp_entries_programmed", "ecp_overflows", "data_cell_writes_correction",
    "corrections", "cascade_corrections", "cascade_truncations",
)
(
    _DEMAND_WRITES, _BACKGROUND_WRITES, _WL_VULNERABLE, _WL_ERRORS,
    _ECP_CLEARED, _UNCORRECTABLE, _PREREAD_HITS, _PREREAD_STALE,
    _PRE_WRITE_READS, _BL_VULNERABLE, _BL_ERRORS, _DRIFT_FLIPS,
    _VERIFY_READS, _VERIFICATIONS, _ECP_ABSORBED, _ECP_PROGRAMMED,
    _ECP_OVERFLOWS, _CORRECTION_WRITES, _CORRECTIONS, _CASCADES,
    _TRUNCATIONS,
) = range(len(PLAN_COUNTERS))


class _Shadow:
    """Copy-on-write planning state for one line (int-domain masks)."""

    __slots__ = ("stored", "disturbed", "write_back")

    def __init__(self, stored: int, disturbed: int, write_back: bool = False):
        self.stored = stored
        self.disturbed = disturbed
        self.write_back = write_back


class _Plan:
    """Everything one composite write op will do."""

    __slots__ = ("latency", "shadows", "written_flags", "ecp_clears",
                 "ecp_records", "counts", "adjacent_notes",
                 "uncovered_resolved", "injections", "demand_cell_writes")

    def __init__(self) -> None:
        self.latency = 0
        #: Shadow line states to write back on commit.
        self.shadows: Dict[LineAddress, _Shadow] = {}
        #: flags value for the written line.
        self.written_flags = 0
        #: ECP mutations: lines whose WD entries clear, and the mask of
        #: fresh WD cells to record per line.
        self.ecp_clears: Set[LineAddress] = set()
        self.ecp_records: Dict[LineAddress, int] = {}
        #: Deferred counter increments, one slot per ``PLAN_COUNTERS``.
        self.counts = [0] * len(PLAN_COUNTERS)
        self.adjacent_notes: List[int] = []
        #: uncovered-mask resolution: keys whose pending uncovered bits
        #: were detected and handled by this op.
        self.uncovered_resolved: Set[LineAddress] = set()
        #: First-level injections (victim addr, sampled int mask) for cancel().
        self.injections: List[Tuple[LineAddress, int]] = []
        #: Demand-write cell changes (wear + partial-cancel accounting).
        self.demand_cell_writes = 0


class VnCExecutor:
    """Scheme-parameterised write executor (see module docstring)."""

    def __init__(
        self,
        array: PCMArray,
        ecp: ECPChip,
        scheme: SchemeConfig,
        timing: TimingConfig,
        disturbance: DisturbanceConfig,
        counters,
        rng: np.random.Generator,
        flip_fractions: Optional[List[float]] = None,
        lifetime_fraction: float = 0.0,
        wear_model: Optional[WearModel] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.array = array
        self.ecp = ecp
        self.scheme = scheme
        self.timing = timing
        self.disturbance = disturbance
        self.counters = counters
        self.rng = rng
        #: The process-wide active bit-kernel backend, captured at
        #: construction (the engine activates its pick before any
        #: executor is built; every backend is byte-identical).
        self.kernels = kernels.active()
        self.flip_fractions = flip_fractions or []
        self.default_flip = 0.14
        #: Per-line demand-write epoch, for PreRead staleness checks.
        self.epochs: Dict[LineAddress, int] = {}
        #: Disturbed-but-undetected bits left by cancelled partial writes
        #: (int-domain masks).
        self.uncovered: Dict[LineAddress, int] = {}
        #: The ECP chip's touched lines, probed directly on the write path
        #: (:meth:`ECPChip.line` materialises a miss).
        self._ecp_lines = ecp.lines
        #: Committed plans' ``PLAN_COUNTERS`` increments, published once
        #: per replay.
        self._totals = [0] * len(PLAN_COUNTERS)
        #: Mask of cells ever buffered per line (ECP differential-write wear).
        self._ecp_seen: Dict[LineAddress, int] = {}
        self.lifetime_fraction = lifetime_fraction
        self._wear_model = wear_model or WearModel()
        self._hard_seeded: Set[LineAddress] = set()
        #: Injected-fault state (all sampling uses the plan's own streams,
        #: never ``self.rng``, so fault-free sample paths are untouched).
        self.fault_plan = fault_plan
        self._fault_seeded: Set[LineAddress] = set()
        #: Stuck cells the line's exhausted ECP could not cover (int masks).
        self._stuck_uncovered: Dict[LineAddress, int] = {}
        #: Per-line masks of disturbance-prone cells (process variation).
        self._weak_masks: Dict[LineAddress, int] = {}
        #: Per-line pools of recurring write flip patterns (data entropy).
        self._flip_pools: Dict[LineAddress, List[int]] = {}
        #: :meth:`_verify_rows` of used rows, per ``(row, nm_tag)``.
        self._adjacency: Dict[tuple, Optional[Tuple[int, ...]]] = {}

        # The scheme and configuration, resolved once for the write path.
        self._verifies = scheme.vnc and not scheme.wd_free_bitlines
        self._vnc = scheme.vnc
        self._lazy = scheme.lazy_correction
        self._wordline_wd = disturbance.enabled
        self._bitline_wd = disturbance.enabled and not scheme.wd_free_bitlines
        self._p_wordline = disturbance.p_wordline * disturbance.din_residual_scale
        self._p_bitline = disturbance.p_bitline_weak
        self._weak_fraction = disturbance.weak_cell_fraction
        self._read_cycles = timing.read_cycles
        self._reset_cycles = timing.reset_cycles
        #: Ablation (Section 4.2): a naive super dense ECP chip suffers WD
        #: on its own entry writes, so programming entries needs its own
        #: verify-and-correct pass.
        self._ecp_verify_cycles = 0 if scheme.low_density_ecp else (
            2 * timing.read_cycles + timing.reset_cycles
        )
        #: No fault plan and a fresh device: ECP lines need no seeding.
        self._fault_free = fault_plan is None and not lifetime_fraction > 0.0

    # -- WriteExecutor interface ---------------------------------------------

    def preread_slots(self, entry: WriteEntry) -> List[PrereadSlot]:
        """Adjacent lines needing verification for this write (0..2)."""
        if not self._verifies:
            return []
        # For (1:2) both neighbours are no-use and no row is verified
        # except at the conservative 64 MB block edges.
        bank, row, line = entry.addr
        nm_tag = entry.nm_tag
        rows = self._adjacency.get((row, nm_tag))
        if rows is None:
            rows = self._verify_rows(row, nm_tag)
            if rows is None:
                adjacent_usage(row, *nm_tag)  # raises: no-use strip
        return [PrereadSlot((bank, victim_row, line)) for victim_row in rows]

    def capture_baseline(self, slot: PrereadSlot) -> None:
        """PreRead completion: record the victim's write epoch."""
        slot.epoch = self.epochs.get(slot.addr, 0)

    def execute(self, entry: WriteEntry, now: int) -> _Plan:
        """Plan the composite op; the controller passes the plan back to
        :meth:`_commit` at completion or :meth:`_cancel` on cancellation."""
        return self._plan(entry)

    def publish_counters(self) -> None:
        """Add the committed plans' counts to ``counters``, once, when the
        replay ends (the totals restart at zero).  The Figure 4 error
        histograms fill as writes commit; their maxima are set here."""
        counters = self.counters
        for attr, total in zip(PLAN_COUNTERS, self._totals):
            if total:
                setattr(counters, attr, getattr(counters, attr) + total)
        self._totals = [0] * len(PLAN_COUNTERS)
        counters.max_errors_one_adjacent_line = max(
            counters.errors_per_adjacent_line_hist, default=0
        )
        counters.max_errors_wordline = max(
            counters.errors_per_wordline_hist, default=0
        )

    # -- planning ---------------------------------------------------------------

    def _verify_rows(self, row: int,
                     nm_tag: Tuple[int, int]) -> Optional[Tuple[int, ...]]:
        """Rows of used neighbour strips a write to ``row`` verifies.

        Top before bottom, within the bank; ``None`` when ``row`` itself
        is no-use under ``nm_tag``.  Callers look in ``_adjacency``
        first; this fills it.
        """
        n, m = nm_tag
        if is_no_use(row, n, m):
            return None
        verify_top, verify_bottom = adjacent_usage(row, n, m)
        rows = self._adjacency[row, nm_tag] = tuple(
            r for r, verify in ((row - 1, verify_top), (row + 1, verify_bottom))
            if verify and 0 <= r < self.array.rows_per_bank
        )
        return rows

    #: Per-line pool of recurring flip patterns and the reuse probability.
    #: Real applications rewrite the same fields of the same lines, so the
    #: set of cells a line's writes toggle is far smaller than random data
    #: would suggest; PIN-captured traces carry that low entropy
    #: implicitly, and the pool reproduces it.
    FLIP_POOL_SIZE = 3
    FLIP_REUSE_PROB = 0.8

    def _flip_mask(self, entry: WriteEntry) -> int:
        pool = self._flip_pools.setdefault(entry.addr, [])
        if pool and (
            len(pool) >= self.FLIP_POOL_SIZE
            or self.rng.random() < self.FLIP_REUSE_PROB
        ):
            return pool[int(self.rng.integers(len(pool)))]
        core = entry.core
        fraction = (self.flip_fractions[core] if 0 <= core < len(self.flip_fractions)
                    else self.default_flip)
        mask = self.kernels.draw_mask(self.rng, LINE_BITS, fraction)
        pool.append(mask)
        return mask

    def _expose(
        self, shadows: Dict[LineAddress, _Shadow], vaddr: LineAddress, pulses: int
    ) -> Tuple[_Shadow, int, int, int]:
        """A victim's shadow and its cells exposed to RESET ``pulses``.

        Returns ``(shadow, vulnerable, weak, stuck)``: the idle amorphous
        cells under a pulse, less stuck cells (ECP hard errors and
        injected stuck cells: no phase left to change); their fixed
        per-line disturbance-prone subset [4, 13, 25] (state plane,
        memoised per executor); and the stuck mask.
        """
        shadow = shadows.get(vaddr)
        if shadow is None:
            shadow = shadows[vaddr] = _Shadow(*self.array.line_ints(vaddr))
        vulnerable = pulses & ((shadow.stored | shadow.disturbed) ^ L.MASK_ALL)
        stuck = 0
        if self.fault_plan is not None:
            stuck = self.fault_plan.stuck_profile(vaddr).mask
        line = self._ecp_lines.get(vaddr)
        if line is not None:
            stuck |= line.hard
        if stuck:
            vulnerable &= stuck ^ L.MASK_ALL
        weak = self._weak_masks.get(vaddr)
        if weak is None:
            weak = self._weak_masks[vaddr] = stateplane.PLANE.weak_mask(
                self._weak_fraction, vaddr
            )
        return shadow, vulnerable, vulnerable & weak, stuck

    def _ecp_line(self, key: LineAddress):
        """ECP line, seeding age-dependent hard errors on first touch.

        Seeding uses a dedicated per-line RNG stream (not ``self.rng``) so
        that runs at different lifetime fractions share an identical
        disturbance/payload sample path — the Figure 14 sweep then isolates
        the hard-error effect instead of re-rolling all randomness.
        """
        line = self.ecp.line(key)
        if self.lifetime_fraction > 0.0 and key not in self._hard_seeded:
            self._hard_seeded.add(key)
            rng = np.random.default_rng(
                (0xECB, *key, int(self.lifetime_fraction * 1000))
            )
            count = int(
                self._wear_model.sample_line_hard_errors(
                    self.lifetime_fraction, rng
                )[0]
            )
            count = min(count, line.capacity)
            positions = rng.choice(LINE_BITS, size=count, replace=False)
            for pos in positions:
                line.add_hard_error(int(pos), int(rng.integers(2)))
        self._fault_seed(key, line)
        return line

    def _fault_seed(self, key: LineAddress, line) -> None:
        """Register the plan's stuck cells as ECP hard errors (first touch).

        This is Section 4.2's exhaustion path made reachable: stuck cells
        beyond the line's (possibly fault-shrunk) ECP capacity raise
        :class:`ECPExhaustedError`, which is absorbed here — the line
        degrades to partial coverage and its uncovered stuck cells are
        charged as uncorrectable on every subsequent demand write.
        """
        if self.fault_plan is None or key in self._fault_seeded:
            return
        self._fault_seeded.add(key)
        profile = self.fault_plan.stuck_profile(key)
        if not profile.mask:
            return
        self.counters.fault_stuck_cells += profile.count
        uncovered = 0
        for pos in self.kernels.bit_positions_int(profile.mask):
            try:
                line.add_hard_error(pos, (profile.values >> pos) & 1)
            except ECPExhaustedError:
                uncovered |= 1 << pos
        if uncovered:
            self.counters.ecp_exhausted_lines += 1
            self._stuck_uncovered[key] = uncovered

    def _plan(self, entry: WriteEntry) -> _Plan:
        plan = _Plan()
        counts = plan.counts
        shadows = plan.shadows
        addr = entry.addr
        backend = self.kernels
        rng = self.rng

        # ---- the data write itself ---------------------------------------
        stored_old, disturbed_old = self.array.line_ints(addr)
        physical_old = stored_old | disturbed_old
        new_logical = entry.payload_int
        if new_logical is None:
            # Synthesised once per entry, so a retried write rewrites it.
            logical_old = backend.decode_int(stored_old, self.array.line_flags(addr))
            new_logical = entry.payload_int = logical_old ^ self._flip_mask(entry)
        stored_new, plan.written_flags = backend.encode_stored_int(
            physical_old, new_logical
        )
        # Differential write: only changed cells are pulsed; for them the
        # old value is the complement of the new one.
        changed = physical_old ^ stored_new
        reset_mask = changed & physical_old
        reset_bits = reset_mask.bit_count()
        changed_bits = changed.bit_count()
        plan.latency = rounds_latency(
            reset_bits, changed_bits - reset_bits, self.timing
        )
        plan.demand_cell_writes = changed_bits
        counts[_DEMAND_WRITES] = changed_bits
        counts[_BACKGROUND_WRITES] = changed_bits

        # ---- word-line disturbance (suppressed by DIN, checked in-write) ---
        if self._wordline_wd:
            wl_vuln = wordline_vulnerable_mask_int(physical_old, reset_mask, changed)
            wl_errors = backend.sample_mask_int(
                wl_vuln, self._p_wordline, rng
            ).bit_count()
            counts[_WL_VULNERABLE] = wl_vuln.bit_count()
            counts[_WL_ERRORS] = wl_errors
            if wl_errors:
                # DIN's in-write check rewrites the disturbed cells: one
                # extra RESET round (both DIN and SD-PCM pay this).
                plan.latency += self._reset_cycles
                counts[_DEMAND_WRITES] += wl_errors

        # Shadow commit of the written line: stored image in, flips cleared.
        shadows[addr] = _Shadow(stored_new, 0, True)
        uncovered = self.uncovered
        if addr in uncovered:
            plan.uncovered_resolved.add(addr)
        # A demand write makes the line's buffered WD corrections stale:
        # the rewrite physically repairs every deviating cell ("a normal
        # write operation clears the accumulated WD errors in ECP").
        existing_ecp = self._ecp_lines.get(addr)
        if existing_ecp is not None and existing_ecp.wd_count:
            counts[_ECP_CLEARED] = existing_ecp.wd_count
            plan.ecp_clears.add(addr)

        # ---- stuck-at faults on the written line ---------------------------
        fault_plan = self.fault_plan
        if fault_plan is not None:
            stuck = fault_plan.stuck_profile(addr)
            if stuck.mask:
                # Materialise the line's ECP cover (and the exhaustion
                # fallback) on first touch, then charge the bits no entry
                # covers and whose frozen value disagrees with this write.
                self._ecp_line(addr)
                wrong = L.stuck_error_mask_int(
                    stored_new, stuck.mask, stuck.values
                ) & self._stuck_uncovered.get(addr, 0)
                if wrong:
                    counts[_UNCORRECTABLE] = wrong.bit_count()

        if not self._bitline_wd:
            return plan  # 8F^2 chip: no bit-line WD, no VnC.

        # ---- pre-write reads ------------------------------------------------
        epochs = self.epochs
        victims: List[LineAddress] = []
        for slot in entry.slots:
            victims.append(slot.addr)
            if slot.forwarded:
                continue  # satisfied from the write queue, no array access
            if not slot.done:
                counts[_PRE_WRITE_READS] += 1
            elif slot.epoch == epochs.get(slot.addr, 0):
                counts[_PREREAD_HITS] += 1
                continue
            else:
                counts[_PREREAD_STALE] += 1
            plan.latency += self._read_cycles

        # ---- bit-line disturbance injection --------------------------------
        # Vulnerable/weak masks are computed per victim, then every victim
        # is sampled in one batched call (RNG-stream-equivalent to
        # per-victim sampling; nothing between the draws touches
        # ``self.rng``).
        vnc = self._vnc
        targets = victims if vnc else list(self.array.bitline_neighbours(addr))
        staged = [self._expose(shadows, vaddr, reset_mask) for vaddr in targets]
        sampled_masks = backend.sample_masks_int(
            [weak for _, _, weak, _ in staged], self._p_bitline, rng
        )
        detected: List[Tuple[LineAddress, int]] = []
        for vaddr, (vshadow, vulnerable, _, stuck), sampled in zip(
            targets, staged, sampled_masks
        ):
            errors = sampled.bit_count()
            counts[_BL_VULNERABLE] += vulnerable.bit_count()
            counts[_BL_ERRORS] += errors
            plan.adjacent_notes.append(errors)
            if fault_plan is not None:
                # Resistance drift: any idle amorphous (non-stuck) cell can
                # have drifted since the last verification, not just cells
                # under this write's RESET pulses.  Sampled from the plan's
                # own stream, so it never perturbs ``self.rng``.
                idle = (vshadow.stored | vshadow.disturbed | stuck) ^ L.MASK_ALL
                new_drift = fault_plan.drift_mask(vaddr, idle) & ~sampled
                if new_drift:
                    counts[_DRIFT_FLIPS] += new_drift.bit_count()
                    sampled |= new_drift
            vshadow.disturbed |= sampled
            vshadow.write_back = True
            plan.injections.append((vaddr, sampled))
            if not vnc:
                # Unprotected super dense PCM: disturbance lands undetected.
                if sampled:
                    uncovered[vaddr] = uncovered.get(vaddr, 0) | sampled
                continue
            pending = uncovered.get(vaddr)
            if pending is not None:
                sampled |= pending & vshadow.disturbed
                plan.uncovered_resolved.add(vaddr)
            detected.append((vaddr, sampled))
        if not vnc:
            return plan

        # ---- verification ---------------------------------------------------
        plan.latency += self._read_cycles * len(victims)
        counts[_VERIFY_READS] += len(victims)
        counts[_VERIFICATIONS] += len(victims)

        # ---- correction / LazyCorrection ------------------------------------
        nm_tag = entry.nm_tag
        for vaddr, new_mask in detected:
            if new_mask:
                self._handle_errors(plan, vaddr, new_mask, nm_tag, 0)
        return plan

    def _handle_errors(self, plan: _Plan, vaddr: LineAddress, new_mask: int,
                       nm_tag: Tuple[int, int], depth: int) -> None:
        """Absorb (LazyC) or correct the new WD errors (non-empty
        ``new_mask``) of one victim line."""
        counts = plan.counts
        if self._fault_free:
            ecp_line = self._ecp_lines.get(vaddr)
            if ecp_line is None:
                ecp_line = self.ecp.line(vaddr)
        else:
            ecp_line = self._ecp_line(vaddr)

        if self._lazy:
            planned = plan.ecp_records.get(vaddr, 0)
            if vaddr in plan.ecp_clears:
                # The line's WD entries go at commit; only its hard entries
                # stay (``record_wd`` skips their cells at commit).
                fresh = new_mask & ~planned
                occupied = ecp_line.hard_count
            else:
                fresh = new_mask & ~(ecp_line.wd | ecp_line.hard | planned)
                occupied = ecp_line.occupied
            programmed = fresh.bit_count()
            if planned.bit_count() + occupied + programmed <= ecp_line.capacity:
                counts[_ECP_ABSORBED] += new_mask.bit_count()
                if fresh:
                    plan.ecp_records[vaddr] = planned | fresh
                    counts[_ECP_PROGRAMMED] += programmed
                    plan.latency += self._ecp_verify_cycles
                return
            counts[_ECP_OVERFLOWS] += 1

        # ---- correction write -------------------------------------------------
        vshadow = plan.shadows[vaddr]
        corr_mask = vshadow.disturbed
        corr_bits = corr_mask.bit_count()
        # A correction is a RESET-only write plus one additional
        # verification read (Section 6.8's cost: "2 correction write
        # operations (RESET), and additional verifications for correction
        # writes").  The near neighbour's contents are already in the
        # controller's buffers from this very op, so only the far
        # neighbour costs an array read.
        plan.latency += self._read_cycles + correction_latency(corr_bits, self.timing)
        counts[_CORRECTION_WRITES] += corr_bits
        counts[_CORRECTIONS if depth == 0 else _CASCADES] += 1
        vshadow.disturbed = 0
        vshadow.write_back = True
        plan.ecp_clears.add(vaddr)
        plan.ecp_records.pop(vaddr, None)
        if vaddr in self.uncovered:
            plan.uncovered_resolved.add(vaddr)

        # Cascade: the correction's RESET pulses disturb vaddr's neighbours.
        # At realistic disturbance rates the cascade decays geometrically
        # (each correction RESETs only a handful of cells); the depth cap
        # only matters for stress configurations with p ~ 1, where further
        # injection is suppressed so the op terminates.
        if depth >= MAX_CASCADE_DEPTH:
            counts[_TRUNCATIONS] += 1
            return
        bank, vrow, line = vaddr
        rows = self._adjacency.get((vrow, nm_tag))
        if rows is None:
            rows = self._verify_rows(vrow, nm_tag)
        if rows is None:
            # The conservative block-edge rule can verify (and correct) a
            # line in a *no-use* strip of the same allocator; it holds no
            # data, so its correction needs no cascade verification.
            return
        counts[_VERIFY_READS] += 1
        for row in rows:
            waddr = (bank, row, line)
            wshadow, _, weak, _ = self._expose(plan.shadows, waddr, corr_mask)
            sampled = self.kernels.sample_mask_int(weak, self._p_bitline, self.rng)
            if not sampled:
                continue
            counts[_BL_ERRORS] += sampled.bit_count()
            wshadow.disturbed |= sampled
            wshadow.write_back = True
            self._handle_errors(plan, waddr, sampled, nm_tag, depth + 1)

    # -- commit / cancel -----------------------------------------------------------

    def _commit(self, entry: WriteEntry, plan: _Plan) -> None:
        commit_line = self.array.commit_line
        wkey = entry.addr
        # Line states.
        for key, shadow in plan.shadows.items():
            if shadow.write_back:
                commit_line(
                    key, shadow.stored, shadow.disturbed,
                    plan.written_flags if key == wkey else None,
                )
        # ECP state (planning materialised every recorded line).
        ecp_lines = self._ecp_lines
        for key in plan.ecp_clears:
            line = ecp_lines.get(key)
            if line is not None:
                line.clear_wd()
        ecp_seen = self._ecp_seen
        for key, mask in plan.ecp_records.items():
            if not ecp_lines[key].record_wd(mask):
                raise SimulationError("planned ECP absorption failed at commit")
            seen = ecp_seen.get(key, 0)
            ecp_seen[key] = seen | mask
            self.counters.ecp_cell_writes_wd += (
                (mask & ~seen).bit_count() * NOVEL_ENTRY_BITS
                + (mask & seen).bit_count() * REPEAT_ENTRY_BITS
            )
        # Uncovered bookkeeping.
        for key in plan.uncovered_resolved:
            self.uncovered.pop(key, None)
        # Epoch bump for the written line (PreRead staleness).
        self.epochs[wkey] = self.epochs.get(wkey, 0) + 1
        # Counters (published at replay end) and the Figure 4 histograms.
        counts = plan.counts
        self._totals = list(map(add, self._totals, counts))
        hist = self.counters.errors_per_adjacent_line_hist
        for note in plan.adjacent_notes:
            hist[note] = hist.get(note, 0) + 1
        hist = self.counters.errors_per_wordline_hist
        note = counts[_WL_ERRORS]
        hist[note] = hist.get(note, 0) + 1

    def _cancel(self, entry: WriteEntry, plan: _Plan, progress: float) -> None:
        """Apply the partial effects of an interrupted write [22].

        The cells already pulsed disturbed their neighbours; those flips
        stay physically present and *undetected* until the retried write's
        verification finds them.  The written line itself is left with its
        old contents plus partial programming, which the retry overwrites.
        """
        progress = min(1.0, max(0.0, progress))
        if progress <= 0.0:
            return
        for vaddr, sampled in plan.injections:
            partial = self.kernels.sample_mask_int(sampled, progress, self.rng)
            applied = self.array.disturb_int(vaddr, partial)
            if applied:
                merged = self.uncovered.get(vaddr, 0) | partial
                self.uncovered[vaddr] = merged & self.array.disturbed_int(vaddr)
                self.counters.partial_write_errors += applied
        burned = int(progress * plan.demand_cell_writes)
        self.counters.data_cell_writes_demand += burned
