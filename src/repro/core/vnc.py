"""Verify-and-Correct write execution, with SD-PCM's three schemes.

This is the write path of Figure 6's memory controller.  For every demand
write popped off a write queue it runs one *composite operation*:

1. **pre-write reads** of the adjacent lines that hold data (skipped when
   PreRead already buffered them, or a queued write forwarded them),
2. the **differential write** itself (DIN-encoded against word-line WD),
3. bit-line **disturbance injection** into the adjacent lines (the physics,
   sampled from the Table 1 model),
4. **verification reads** of the adjacent lines and detection of new errors,
5. **LazyCorrection** (buffer errors in spare ECP entries) or a
   **correction write**, whose RESET pulses can disturb *its* neighbours and
   cascade (Section 3.2) until a verification pass comes back clean.

``execute`` samples the op and applies it as it goes, in place in the
touched lines' records and ECP lines; it returns the plan, which the
controller hands back once.  No event can read those lines in between: a
bank runs one op at a time, every line an op touches sits in its bank,
and a paused write resumes before its bank starts anything else.
``_commit`` then charges what completion costs (novel ECP-entry wear, the
uncovered bookkeeping, the counters).  Only write cancellation throws an
op away: a scheme that can cancel logs each touched line's prior values,
and ``_cancel`` restores them before it applies the partial disturbance of
the pulses already fired.  Committed plans' counter increments accumulate
in the executor and reach :class:`~repro.stats.counters.Counters` once,
through :meth:`VnCExecutor.publish_counters`, when the replay ends.

Everything works in the **int domain** (512-bit integers, see
:mod:`repro.pcm.line`): the array keeps one record per touched line (its
ints plus this module's per-line memo), and masks and sampling use Python
big-integer bitwise ops, which beat 8-word numpy ufuncs by 3-10x on this
size.  All RNG draws happen in the same order and with the same counts as
the original array-domain implementation, so results are bit-identical.
Line keys are plain :data:`~repro.pcm.array.LineAddress` tuples
``(bank, row, line)``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..alloc.strips import adjacent_usage, is_no_use
from ..config import LINE_BITS, DisturbanceConfig, SchemeConfig, TimingConfig
from ..ecp.chip import ECPChip
from ..ecp.wear import WearModel
from ..errors import ECPExhaustedError
from ..faults.plan import FaultPlan
from ..mem.request import PrereadSlot, WriteEntry
from ..pcm import kernels
from ..pcm import line as L
from ..pcm import stateplane
from ..pcm.array import LineAddress, LineRecord, PCMArray
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

#: Committed plans' counts are summed in blocks of this many plans.
FOLD_BLOCK = 1024


class _Plan:
    """What one composite write op did, and what its completion charges."""

    __slots__ = ("latency", "counts", "adjacent_notes", "uncovered_resolved",
                 "absorbed", "cleared", "injections", "undo",
                 "demand_cell_writes")

    def __init__(self, cancellable: bool) -> None:
        self.latency = 0
        #: Deferred counter increments, one slot per ``PLAN_COUNTERS``.
        self.counts = [0] * len(PLAN_COUNTERS)
        self.adjacent_notes: List[int] = []
        #: Keys whose pending uncovered bits this op detects and handles.
        self.uncovered_resolved: List[LineAddress] = []
        #: Records whose ECP line took WD entries in this op.
        self.absorbed: List[LineRecord] = []
        #: Records whose WD entries this op cleared (demand write or
        #: correction).
        self.cleared: List[LineRecord] = []
        #: If the scheme cancels: the first-level injections (addr, sampled
        #: mask) and each touched record's prior values (record, stored,
        #: disturbed, flags, epoch, ECP WD mask), in touch order.
        self.injections: Optional[List[Tuple[LineAddress, int]]] = None
        self.undo: Optional[List[tuple]] = None
        if cancellable:
            self.injections = []
            self.undo = []
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
        self.timing = timing
        self.counters = counters
        self.rng = rng
        #: The process-wide active bit-kernel backend, captured at
        #: construction (the engine activates its pick before any
        #: executor is built; every backend is byte-identical).
        self.kernels = kernels.active()
        self.flip_fractions = flip_fractions or []
        self.default_flip = 0.14
        #: Disturbed-but-undetected bits left by cancelled partial writes
        #: (int-domain masks).
        self.uncovered: Dict[LineAddress, int] = {}
        #: The array's line records and the ECP chip's lines, probed
        #: directly on the write path (:meth:`_open` fills a miss).
        self._lines = array.lines
        self._ecp_lines = ecp.lines
        #: Committed plans' ``PLAN_COUNTERS`` increments and Figure 4
        #: histogram notes, published once per replay.
        self._totals = [0] * len(PLAN_COUNTERS)
        self._pending: List[List[int]] = []
        self._adjacent_notes: List[int] = []
        self._wordline_notes: List[int] = []
        self.lifetime_fraction = lifetime_fraction
        self._wear_model = wear_model or WearModel()
        #: Injected-fault state (all sampling uses the plan's own streams,
        #: never ``self.rng``, so fault-free sample paths are untouched).
        self.fault_plan = fault_plan
        #: Stuck cells the line's exhausted ECP could not cover (int masks).
        self._stuck_uncovered: Dict[LineAddress, int] = {}
        #: :meth:`_verify_rows` of used rows, per ``(row, nm_tag)``.
        self._adjacency: Dict[tuple, Optional[Tuple[int, ...]]] = {}

        # The scheme and configuration, resolved once for the write path.
        self._verifies = scheme.vnc and not scheme.wd_free_bitlines
        self._vnc = scheme.vnc
        self._lazy = scheme.lazy_correction
        self._cancellable = scheme.write_cancellation
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
        record = self._lines.get(slot.addr)
        slot.epoch = 0 if record is None else record.epoch

    def execute(self, entry: WriteEntry, now: int) -> _Plan:
        """Plan the composite op; the controller passes the plan back to
        :meth:`_commit` at completion or :meth:`_cancel` on cancellation."""
        return self._plan(entry)

    def publish_counters(self) -> None:
        """Add the committed plans' counts and Figure 4 error histogram
        notes to ``counters``, once, when the replay ends (the totals
        restart at zero); histogram keys keep their first-seen order."""
        counters = self.counters
        self._fold()
        for attr, total in zip(PLAN_COUNTERS, self._totals):
            if total:
                setattr(counters, attr, getattr(counters, attr) + total)
        self._totals = [0] * len(PLAN_COUNTERS)
        adjacent = counters.errors_per_adjacent_line_hist
        wordline = counters.errors_per_wordline_hist
        for hist, notes in ((adjacent, self._adjacent_notes),
                            (wordline, self._wordline_notes)):
            for note, count in Counter(notes).items():
                hist[note] = hist.get(note, 0) + count
            notes.clear()
        counters.max_errors_one_adjacent_line = max(adjacent, default=0)
        counters.max_errors_wordline = max(wordline, default=0)

    def _fold(self) -> None:
        """Sum the pending plans' counts into ``_totals``."""
        self._totals = list(map(sum, zip(self._totals, *self._pending)))
        self._pending.clear()

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

    def _flip_mask(self, entry: WriteEntry, record: LineRecord) -> int:
        pool = record.pool or []
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
        record.pool = pool
        return mask

    def _open(self, plan: _Plan, key: LineAddress) -> LineRecord:
        """The record of a line the op touches; a line's first touch
        materialises it and links the chip's ECP line, if any.  A
        cancellable op logs the record's values before it changes them."""
        record = self._lines.get(key)
        if record is None:
            record = self.array.materialise(key)
            record.ecp = self._ecp_lines.get(key)
        undo = plan.undo
        if undo is not None:
            line = record.ecp
            undo.append((record, record.stored, record.disturbed, record.flags,
                         record.epoch, 0 if line is None else line.wd))
        return record

    def _expose(
        self, record: LineRecord, vaddr: LineAddress, pulses: int
    ) -> Tuple[int, int, int]:
        """A victim's cells exposed to RESET ``pulses``.

        Returns ``(vulnerable, weak, stuck)``: the idle amorphous cells
        under a pulse, less stuck cells (ECP hard errors and injected
        stuck cells: no phase left to change); their fixed per-line
        disturbance-prone subset [4, 13, 25] (state plane, memoised in
        the line's record); and the stuck mask.
        """
        vulnerable = pulses & ((record.stored | record.disturbed) ^ L.MASK_ALL)
        stuck = 0
        if self.fault_plan is not None:
            stuck = self.fault_plan.stuck_profile(vaddr).mask
        line = record.ecp
        if line is not None:
            stuck |= line.hard
        if stuck:
            vulnerable &= stuck ^ L.MASK_ALL
        weak = record.weak
        if weak is None:
            weak = record.weak = stateplane.PLANE.weak_mask(
                self._weak_fraction, vaddr
            )
        return vulnerable, vulnerable & weak, stuck

    def _ecp_line(self, key: LineAddress, record: LineRecord):
        """Link a line's new ECP state into its record, seeding age-dependent
        hard errors and injected stuck cells.

        Seeding uses a dedicated per-line RNG stream (not ``self.rng``) so
        that runs at different lifetime fractions share an identical
        disturbance/payload sample path — the Figure 14 sweep then isolates
        the hard-error effect instead of re-rolling all randomness.

        Stuck cells beyond the line's (possibly fault-shrunk) capacity raise
        :class:`ECPExhaustedError`, absorbed here (Section 4.2's exhaustion
        path): the line degrades to partial coverage and its uncovered stuck
        cells are charged as uncorrectable on every later demand write.
        """
        line = record.ecp = self.ecp.line(key)
        fraction = self.lifetime_fraction
        if fraction > 0.0:
            rng = self.kernels.seeded_rng((0xECB, *key, int(fraction * 1000)))
            count = int(self._wear_model.sample_line_hard_errors(fraction, rng)[0])
            count = min(count, line.capacity)
            if count:
                for pos in rng.choice(LINE_BITS, size=count, replace=False):
                    line.add_hard_error(int(pos), int(rng.integers(2)))
        if self.fault_plan is None:
            return line
        profile = self.fault_plan.stuck_profile(key)
        if profile.mask:
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
        return line

    def _plan(self, entry: WriteEntry) -> _Plan:
        plan = _Plan(self._cancellable)
        counts = plan.counts
        addr = entry.addr
        backend = self.kernels
        rng = self.rng

        # ---- the data write itself ---------------------------------------
        record = self._open(plan, addr)
        stored_old = record.stored
        physical_old = stored_old | record.disturbed
        new_logical = entry.payload_int
        if new_logical is None:
            # Synthesised once per entry, so a retried write rewrites it.
            logical_old = backend.decode_int(stored_old, record.flags)
            flips = self._flip_mask(entry, record)
            new_logical = entry.payload_int = logical_old ^ flips
        stored_new, flags = backend.encode_stored_int(physical_old, new_logical)
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

        # The write lands: stored image in, flips cleared, and the epoch
        # bump that makes PreRead copies of this line stale.
        record.stored, record.disturbed, record.flags = stored_new, 0, flags
        record.epoch += 1
        uncovered = self.uncovered
        if addr in uncovered:
            plan.uncovered_resolved.append(addr)
        # A demand write makes the line's buffered WD corrections stale:
        # the rewrite physically repairs every deviating cell ("a normal
        # write operation clears the accumulated WD errors in ECP").
        existing_ecp = record.ecp
        if existing_ecp is not None and existing_ecp.wd:
            counts[_ECP_CLEARED] = existing_ecp.clear_wd()
            plan.cleared.append(record)

        # ---- stuck-at faults on the written line ---------------------------
        fault_plan = self.fault_plan
        if fault_plan is not None:
            stuck = fault_plan.stuck_profile(addr)
            if stuck.mask:
                # Materialise the line's ECP cover (and the exhaustion
                # fallback) on first touch, then charge the bits no entry
                # covers and whose frozen value disagrees with this write.
                if record.ecp is None:
                    self._ecp_line(addr, record)
                wrong = L.stuck_error_mask_int(
                    stored_new, stuck.mask, stuck.values
                ) & self._stuck_uncovered.get(addr, 0)
                if wrong:
                    counts[_UNCORRECTABLE] = wrong.bit_count()

        if not self._bitline_wd:
            return plan  # 8F^2 chip: no bit-line WD, no VnC.

        # ---- pre-write reads ------------------------------------------------
        victims: List[Tuple[LineAddress, LineRecord]] = []
        for slot in entry.slots:  # distinct lines, none of them ``addr``
            vaddr = slot.addr
            vrecord = self._open(plan, vaddr)
            victims.append((vaddr, vrecord))
            if slot.forwarded:
                continue  # satisfied from the write queue, no array access
            if not slot.done:
                counts[_PRE_WRITE_READS] += 1
            elif slot.epoch == vrecord.epoch:
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
        if not vnc:
            victims = [(vaddr, self._open(plan, vaddr))
                       for vaddr in self.array.bitline_neighbours(addr)]
        staged = [self._expose(vrecord, vaddr, reset_mask)
                  for vaddr, vrecord in victims]
        sampled_masks = backend.sample_masks_int(
            [weak for _, weak, _ in staged], self._p_bitline, rng
        )
        detected: List[Tuple[LineAddress, LineRecord, int]] = []
        vulnerable_cells = error_cells = 0
        injections = plan.injections
        for (vaddr, vrecord), (vulnerable, _, stuck), sampled in zip(
            victims, staged, sampled_masks
        ):
            errors = sampled.bit_count()
            vulnerable_cells += vulnerable.bit_count()
            error_cells += errors
            plan.adjacent_notes.append(errors)
            if fault_plan is not None:
                # Resistance drift: any idle amorphous (non-stuck) cell can
                # have drifted since the last verification, not just cells
                # under this write's RESET pulses.  Sampled from the plan's
                # own stream, so it never perturbs ``self.rng``.
                idle = (vrecord.stored | vrecord.disturbed | stuck) ^ L.MASK_ALL
                new_drift = fault_plan.drift_mask(vaddr, idle) & ~sampled
                if new_drift:
                    counts[_DRIFT_FLIPS] += new_drift.bit_count()
                    sampled |= new_drift
            vrecord.disturbed |= sampled
            if injections is not None:
                injections.append((vaddr, sampled))
            if not vnc:
                # Unprotected super dense PCM: disturbance lands undetected.
                if sampled:
                    uncovered[vaddr] = uncovered.get(vaddr, 0) | sampled
                continue
            pending = uncovered.get(vaddr)
            if pending is not None:
                sampled |= pending & vrecord.disturbed
                plan.uncovered_resolved.append(vaddr)
            detected.append((vaddr, vrecord, sampled))
        counts[_BL_VULNERABLE], counts[_BL_ERRORS] = vulnerable_cells, error_cells
        if not vnc:
            return plan

        # ---- verification ---------------------------------------------------
        verified = len(victims)
        plan.latency += self._read_cycles * verified
        counts[_VERIFY_READS] = counts[_VERIFICATIONS] = verified

        # ---- correction / LazyCorrection ------------------------------------
        nm_tag = entry.nm_tag
        for vaddr, vrecord, new_mask in detected:
            if new_mask:
                self._handle_errors(plan, vaddr, vrecord, new_mask, nm_tag, 0)
        return plan

    def _handle_errors(self, plan: _Plan, vaddr: LineAddress,
                       record: LineRecord, new_mask: int,
                       nm_tag: Tuple[int, int], depth: int) -> None:
        """Absorb (LazyC) or correct the new WD errors (non-empty
        ``new_mask``) of one victim line."""
        counts = plan.counts
        ecp_line = record.ecp
        if ecp_line is None:
            ecp_line = self._ecp_line(vaddr, record)

        if self._lazy:
            fresh = ecp_line.record_wd(new_mask, record in plan.cleared)
            if fresh >= 0:
                counts[_ECP_ABSORBED] += new_mask.bit_count()
                if fresh:
                    plan.absorbed.append(record)
                    counts[_ECP_PROGRAMMED] += fresh.bit_count()
                    plan.latency += self._ecp_verify_cycles
                return
            counts[_ECP_OVERFLOWS] += 1

        # ---- correction write -------------------------------------------------
        corr_mask = record.disturbed
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
        record.disturbed = 0
        ecp_line.clear_wd()
        plan.cleared.append(record)
        if vaddr in self.uncovered:
            plan.uncovered_resolved.append(vaddr)

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
            wrecord = self._open(plan, waddr)
            _, weak, _ = self._expose(wrecord, waddr, corr_mask)
            sampled = self.kernels.sample_mask_int(weak, self._p_bitline, self.rng)
            if not sampled:
                continue
            counts[_BL_ERRORS] += sampled.bit_count()
            wrecord.disturbed |= sampled
            self._handle_errors(plan, waddr, wrecord, sampled, nm_tag, depth + 1)

    # -- commit / cancel -----------------------------------------------------------

    def _commit(self, entry: WriteEntry, plan: _Plan) -> None:
        # Novel ECP-entry wear: the cells of the WD entries that survive
        # the op and that the line's ECP region never held before.  An
        # entry the op placed on a hard entry's cell after clearing the
        # line's WD entries is charged, then dropped (the hard entry stays).
        absorbed = plan.absorbed
        if absorbed:
            wd_writes = 0
            for record in absorbed:
                line = record.ecp
                wd = line.wd
                seen = record.seen
                wd_writes += (wd & ~seen).bit_count()
                record.seen = seen | wd
                line.wd = wd & ~line.hard
            self.counters.ecp_cell_writes_wd += wd_writes * NOVEL_ENTRY_BITS
        # Uncovered bookkeeping.
        for key in plan.uncovered_resolved:
            self.uncovered.pop(key, None)
        # Counters and Figure 4 notes (published at replay end).
        counts = plan.counts
        pending = self._pending
        pending.append(counts)
        if len(pending) >= FOLD_BLOCK:
            self._fold()
        self._adjacent_notes += plan.adjacent_notes
        self._wordline_notes.append(counts[_WL_ERRORS])

    def _cancel(self, entry: WriteEntry, plan: _Plan, progress: float) -> None:
        """Undo an interrupted write [22] and apply its partial effects.

        The op's line and ECP changes are rolled back from its undo log
        (newest first, so each record ends at its value before the op).
        The cells already pulsed disturbed their neighbours; those flips
        stay physically present and *undetected* until the retried write's
        verification finds them.  The written line itself is left with its
        old contents plus partial programming, which the retry overwrites.
        Only a write-cancellation scheme records the log and injections.
        """
        for record, stored, disturbed, flags, epoch, wd in reversed(plan.undo):
            record.stored, record.disturbed = stored, disturbed
            record.flags, record.epoch = flags, epoch
            if record.ecp is not None:
                record.ecp.wd = wd
        progress = min(1.0, max(0.0, progress))
        if progress <= 0.0:
            return
        for vaddr, sampled in plan.injections:
            partial = self.kernels.sample_mask_int(sampled, progress, self.rng)
            applied = self.array.disturb_int(vaddr, partial)
            if applied:
                merged = self.uncovered.get(vaddr, 0) | partial
                self.uncovered[vaddr] = merged & self._lines[vaddr].disturbed
                self.counters.partial_write_errors += applied
        burned = int(progress * plan.demand_cell_writes)
        self.counters.data_cell_writes_demand += burned
