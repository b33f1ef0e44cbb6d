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
touched lines' records and ECP lines, adds its counts straight into the
executor's totals, and returns the plan, which the controller hands back
once.  No event can read those lines in between: a bank runs one op at a
time, every line an op touches sits in its bank, and a paused write
resumes before its bank starts anything else.  ``_commit`` charges what
completion costs (novel ECP-entry wear, the uncovered bookkeeping) and
files the op's Figure 4 notes, so histogram keys keep their first-seen
order when a paused op commits out of plan order.  Only write
cancellation throws an op away: a cancellable op keeps its counts apart
until ``_commit`` and logs each touched line's prior values, which
``_cancel`` restores before it applies the partial disturbance of the
pulses already fired.  Totals and notes reach
:class:`~repro.stats.counters.Counters` once, through
:meth:`VnCExecutor.publish_counters`, when the replay ends.  How a
victim's new errors are handled (LazyCorrection's absorb-else-correct or
the plain correction) is bound once per executor.

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
from operator import add
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

#: Per-line pool of recurring flip patterns and the reuse probability.
#: Real applications rewrite the same fields of the same lines, so the
#: set of cells a line's writes toggle is far smaller than random data
#: would suggest; PIN-captured traces carry that low entropy implicitly,
#: and the pool reproduces it.
FLIP_POOL_SIZE = 3
FLIP_REUSE_PROB = 0.8


#: The :class:`~repro.stats.counters.Counters` fields an op increments:
#: slot ``i`` of the executor's totals (or of a cancellable op's counts)
#: adds to field ``PLAN_COUNTERS[i]``.
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


class _Plan:
    """What one composite write op did, and what its completion charges."""

    __slots__ = ("latency", "wordline_errors", "notes", "resolved",
                 "absorbed", "cleared", "counts", "injections", "undo")

    def __init__(self, cancellable: bool) -> None:
        self.latency = 0
        #: Figure 4 notes: word-line errors, each victim's bit-line errors.
        self.wordline_errors = 0
        self.notes: List[int] = []
        #: Keys whose pending uncovered bits this op detects and handles.
        self.resolved: List[LineAddress] = []
        #: Records whose ECP line took WD entries, and records whose WD
        #: entries this op cleared (demand write or correction).
        self.absorbed: List[LineRecord] = []
        self.cleared: List[LineRecord] = []
        #: Only if the scheme cancels: the op's ``PLAN_COUNTERS`` slots,
        #: the first-level injections (addr, sampled mask) and each touched
        #: record's prior values (record, stored, disturbed, flags, epoch,
        #: ECP WD mask), in touch order.
        self.counts = self.injections = self.undo = None
        if cancellable:
            self.counts, self.injections, self.undo = [0] * len(PLAN_COUNTERS), [], []


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
        #: The array's line records, probed directly on the write path (a
        #: miss is materialised; each record links its own ECP line).
        self._lines = array.lines
        #: ``PLAN_COUNTERS`` totals and Figure 4 notes, published per replay.
        self._totals = [0] * len(PLAN_COUNTERS)
        self._adjacent_notes: List[int] = []
        self._wordline_notes: List[int] = []
        self.lifetime_fraction = lifetime_fraction
        self._wear_model = wear_model or WearModel()
        #: Injected-fault state (all sampling uses the plan's own streams,
        #: never ``self.rng``, so fault-free sample paths are untouched).
        self.fault_plan = fault_plan
        #: Whether a new ECP line is seeded (hard errors, stuck cells, dead
        #: entries), so its birth must not wait for the first absorb.
        self._seeds_ecp = lifetime_fraction > 0.0 or fault_plan is not None
        #: Stuck cells the line's exhausted ECP could not cover (int masks).
        self._stuck_uncovered: Dict[LineAddress, int] = {}
        #: :meth:`_verify_rows` of used rows, per ``(row, nm_tag)``.
        self._adjacency: Dict[tuple, Optional[Tuple[int, ...]]] = {}

        # The scheme and configuration, resolved once for the write path:
        # an 8F^2 chip has no bit-line WD, and only VnC verifies victims.
        self._bitline_wd = scheme.bitlines != "wd_free"
        self._vnc = scheme.bitlines == "vnc"
        self._cancellable = scheme.read_priority == "cancel"
        self._p_wordline = disturbance.p_wordline * disturbance.din_residual_scale
        self._p_bitline = disturbance.p_bitline_weak
        self._weak_fraction = disturbance.weak_cell_fraction
        self._read_cycles = timing.read_cycles
        self._reset_cycles = timing.reset_cycles
        #: The error policy for a victim's new errors, held unbound (a bound
        #: method would be a reference cycle): ``_handle_errors(self, ...)``.
        self._handle_errors = (VnCExecutor._absorb_or_correct
                               if scheme.lazy_correction else VnCExecutor._correct)
        #: Ablation (Section 4.2): a naive super dense ECP chip suffers WD
        #: on its own entry writes, so programming entries needs its own
        #: verify-and-correct pass (charged by LazyCorrection's absorb).
        self._ecp_verify_cycles = (0 if scheme.low_density_ecp
                                   else 2 * timing.read_cycles + timing.reset_cycles)

    # -- WriteExecutor interface ---------------------------------------------

    def preread_slots(self, entry: WriteEntry) -> List[PrereadSlot]:
        """Adjacent lines needing verification for this write (0..2)."""
        if not self._vnc:
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
        """Sample and apply the composite op; the controller passes the
        plan back to :meth:`_commit` at completion or :meth:`_cancel` on
        cancellation."""
        plan = _Plan(self._cancellable)
        counts = plan.counts
        if counts is None:
            counts = self._totals
        undo = plan.undo
        addr = entry.addr
        backend = self.kernels
        rng = self.rng
        lines = self._lines

        # ---- the data write itself ---------------------------------------
        record = lines.get(addr)
        if record is None or undo is not None:
            record = self._open(addr, record, undo)
        stored_old = record.stored
        physical_old = stored_old | record.disturbed
        new_logical = entry.payload_int
        if new_logical is None:
            # Synthesised once per entry, so a retried write rewrites it:
            # mostly one of the line's recurring flip patterns.
            logical_old = backend.decode_int(stored_old, record.flags)
            pool = record.pool
            if pool and (len(pool) >= FLIP_POOL_SIZE
                         or rng.random() < FLIP_REUSE_PROB):
                flips = pool[int(rng.integers(len(pool)))]
            else:
                flips = self._new_flips(entry.core, record)
            new_logical = entry.payload_int = logical_old ^ flips
        stored_new, flags = backend.encode_stored_int(physical_old, new_logical)
        # Differential write: only changed cells are pulsed; for them the
        # old value is the complement of the new one.
        changed = physical_old ^ stored_new
        reset_mask = changed & physical_old
        reset_bits = reset_mask.bit_count()
        changed_bits = changed.bit_count()
        latency = rounds_latency(reset_bits, changed_bits - reset_bits, self.timing)
        counts[_BACKGROUND_WRITES] += changed_bits

        # ---- word-line disturbance (suppressed by DIN, checked in-write) ---
        wl_vuln = wordline_vulnerable_mask_int(physical_old, reset_mask, changed)
        wl_errors = backend.sample_mask_int(wl_vuln, self._p_wordline, rng).bit_count()
        counts[_WL_VULNERABLE] += wl_vuln.bit_count()
        counts[_WL_ERRORS] += wl_errors
        plan.wordline_errors = wl_errors
        if wl_errors:
            # DIN's in-write check rewrites the disturbed cells: one extra
            # RESET round (both DIN and SD-PCM pay this).
            latency += self._reset_cycles
        counts[_DEMAND_WRITES] += changed_bits + wl_errors

        # The write lands: stored image in, flips cleared, and the epoch
        # bump that makes PreRead copies of this line stale.
        record.stored, record.disturbed, record.flags = stored_new, 0, flags
        record.epoch += 1
        uncovered = self.uncovered
        if addr in uncovered:
            plan.resolved.append(addr)
        # A demand write makes the line's buffered WD corrections stale:
        # the rewrite physically repairs every deviating cell ("a normal
        # write operation clears the accumulated WD errors in ECP").
        line = record.ecp
        if line is not None and line.wd:
            counts[_ECP_CLEARED] += line.clear_wd()
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
                counts[_UNCORRECTABLE] += wrong.bit_count()

        if not self._bitline_wd:
            plan.latency = latency
            return plan  # 8F^2 chip: no bit-line WD, no VnC.

        # ---- pre-write reads and bit-line exposure, one pass ---------------
        # VnC's victims are the write's PreRead slots (distinct lines, none
        # of them ``addr``); an unverified chip disturbs both neighbours.
        # Exposed: idle amorphous cells under a RESET pulse, less stuck
        # cells (ECP hard errors, injected stuck cells).  Their fixed weak
        # subset [4, 13, 25] is staged for one batched draw (equivalent
        # to per-victim draws), and with a fault plan, resistance drift of
        # any idle cell since the last verification (the plan's stream).
        vnc = self._vnc
        targets = entry.slots if vnc else tuple(self.array.bitline_neighbours(addr))
        read_cycles = self._read_cycles
        weak_mask = stateplane.PLANE.weak_mask
        materialise = self.array.materialise
        keys, records, staged = [], [], []
        drifts: Optional[List[int]] = None if fault_plan is None else []
        vulnerable_cells = 0
        for target in targets:
            vaddr = target.addr if vnc else target
            vrecord = lines.get(vaddr)
            if undo is not None:
                vrecord = self._open(vaddr, vrecord, undo)
            elif vrecord is None:
                vrecord = materialise(vaddr)
            keys.append(vaddr)
            records.append(vrecord)
            # A forwarded slot was satisfied from the write queue, and a
            # PreRead copy is good while the victim's epoch is unchanged.
            if vnc and not target.forwarded:
                if not target.done:
                    counts[_PRE_WRITE_READS] += 1
                    latency += read_cycles
                elif target.epoch == vrecord.epoch:
                    counts[_PREREAD_HITS] += 1
                else:
                    counts[_PREREAD_STALE] += 1
                    latency += read_cycles
            vline = vrecord.ecp
            occupied = (vrecord.stored | vrecord.disturbed
                        | (0 if vline is None else vline.hard))
            if drifts is not None:
                occupied |= fault_plan.stuck_profile(vaddr).mask
                drifts.append(fault_plan.drift_mask(vaddr, occupied ^ L.MASK_ALL))
            vulnerable = reset_mask & ~occupied
            vulnerable_cells += vulnerable.bit_count()
            weak = vrecord.weak
            if weak is None:
                weak = vrecord.weak = weak_mask(self._weak_fraction, vaddr)
            staged.append(vulnerable & weak)
        counts[_BL_VULNERABLE] += vulnerable_cells

        # ---- bit-line disturbance injection --------------------------------
        # Each victim's draw is replaced by its new errors to handle.
        found = backend.sample_masks_int(staged, self._p_bitline, rng)
        notes = plan.notes
        injections = plan.injections
        error_cells = 0
        for i, sampled in enumerate(found):
            errors = sampled.bit_count()
            error_cells += errors
            notes.append(errors)
            if drifts is not None:
                new_drift = drifts[i] & ~sampled
                if new_drift:
                    counts[_DRIFT_FLIPS] += new_drift.bit_count()
                    sampled |= new_drift
            vrecord = records[i]
            vrecord.disturbed |= sampled
            vaddr = keys[i]
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
                plan.resolved.append(vaddr)
            found[i] = sampled
        counts[_BL_ERRORS] += error_cells
        if not vnc:
            plan.latency = latency
            return plan

        # ---- verification ---------------------------------------------------
        verified = len(records)
        plan.latency = latency + read_cycles * verified
        counts[_VERIFY_READS] += verified
        counts[_VERIFICATIONS] += verified

        # ---- correction / LazyCorrection ------------------------------------
        handle = self._handle_errors
        nm_tag = entry.nm_tag
        for i, new_mask in enumerate(found):
            if new_mask:
                handle(self, plan, counts, keys[i], records[i], new_mask, nm_tag, 0)
        return plan

    def publish_counters(self) -> None:
        """Add the counts and Figure 4 error histogram notes to
        ``counters``, once, when the replay ends (the totals restart at
        zero); histogram keys keep their first-seen order."""
        counters = self.counters
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

    def _new_flips(self, core: int, record: LineRecord) -> int:
        """Draw a fresh flip pattern for the line and pool it."""
        fraction = (self.flip_fractions[core] if 0 <= core < len(self.flip_fractions)
                    else self.default_flip)
        mask = self.kernels.draw_mask(self.rng, LINE_BITS, fraction)
        record.pool = (record.pool or []) + [mask]
        return mask

    def _open(self, key: LineAddress, record: Optional[LineRecord],
              undo: Optional[List[tuple]]) -> LineRecord:
        """A line the op touches, off the hot path (``record`` is the probe
        of ``_lines``): a first touch materialises its record, and a
        cancellable op logs the record's values before it changes them.

        A new record links no ECP line: lines are born only in
        :meth:`_ecp_line`, which links each one into its record.
        """
        if record is None:
            record = self.array.materialise(key)
        if undo is not None:
            line = record.ecp
            undo.append((record, record.stored, record.disturbed, record.flags,
                         record.epoch, 0 if line is None else line.wd))
        return record

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

    # -- error policies (one is bound per executor as ``_handle_errors``) ------

    def _absorb_or_correct(self, plan: _Plan, counts: List[int], vaddr: LineAddress,
                           record: LineRecord, new_mask: int, nm_tag, depth: int):
        """LazyCorrection: buffer the victim's new errors in its line's
        spare ECP entries, or correct the line when they do not fit."""
        line = record.ecp
        if line is None:
            line = self._ecp_line(vaddr, record)
        fresh = line.record_wd(new_mask, record in plan.cleared)
        if fresh < 0:
            counts[_ECP_OVERFLOWS] += 1
            self._correct(plan, counts, vaddr, record, new_mask, nm_tag, depth)
            return
        counts[_ECP_ABSORBED] += new_mask.bit_count()
        if fresh:
            plan.absorbed.append(record)
            counts[_ECP_PROGRAMMED] += fresh.bit_count()
            plan.latency += self._ecp_verify_cycles

    def _correct(self, plan: _Plan, counts: List[int], vaddr: LineAddress,
                 record: LineRecord, new_mask: int, nm_tag, depth: int) -> None:
        """Correction write of the victim's disturbed cells, then the
        cascade its RESET pulses start."""
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
        line = record.ecp
        if line is not None or self._seeds_ecp:
            # An unseeded new line is empty: the first absorb creates it.
            (line or self._ecp_line(vaddr, record)).clear_wd()
        plan.cleared.append(record)
        if vaddr in self.uncovered:
            plan.resolved.append(vaddr)

        # Cascade: the correction's RESET pulses disturb vaddr's neighbours.
        # At realistic disturbance rates the cascade decays geometrically
        # (each correction RESETs only a handful of cells); the depth cap
        # only matters for stress configurations with p ~ 1, where further
        # injection is suppressed so the op terminates.
        if depth >= MAX_CASCADE_DEPTH:
            counts[_TRUNCATIONS] += 1
            return
        bank, vrow, column = vaddr
        rows = self._adjacency.get((vrow, nm_tag))
        if rows is None:
            rows = self._verify_rows(vrow, nm_tag)
            if rows is None:
                # The conservative block-edge rule can verify (and correct)
                # a line in a *no-use* strip of the same allocator; it holds
                # no data, so its correction needs no cascade verification.
                return
        counts[_VERIFY_READS] += 1
        fault_plan = self.fault_plan
        undo = plan.undo
        weak_mask = stateplane.PLANE.weak_mask
        for row in rows:
            waddr = (bank, row, column)
            wrecord = self._lines.get(waddr)
            if undo is not None:
                wrecord = self._open(waddr, wrecord, undo)
            elif wrecord is None:
                wrecord = self.array.materialise(waddr)
            # Exposed weak cells, as in the op's victim pass.
            wline = wrecord.ecp
            occupied = (wrecord.stored | wrecord.disturbed
                        | (0 if wline is None else wline.hard))
            if fault_plan is not None:
                occupied |= fault_plan.stuck_profile(waddr).mask
            weak = wrecord.weak
            if weak is None:
                weak = wrecord.weak = weak_mask(self._weak_fraction, waddr)
            candidates = corr_mask & ~occupied & weak
            if not candidates:
                continue  # every backend samples 0 from 0, drawing nothing
            sampled = self.kernels.sample_mask_int(
                candidates, self._p_bitline, self.rng)
            if not sampled:
                continue
            counts[_BL_ERRORS] += sampled.bit_count()
            wrecord.disturbed |= sampled
            self._handle_errors(self, plan, counts, waddr, wrecord, sampled,
                                nm_tag, depth + 1)

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
        for key in plan.resolved:
            self.uncovered.pop(key, None)
        # A cancellable op's counts, and every op's Figure 4 notes.
        counts = plan.counts
        if counts is not None:
            self._totals = list(map(add, self._totals, counts))
        self._adjacent_notes += plan.notes
        self._wordline_notes.append(plan.wordline_errors)

    def _cancel(self, entry: WriteEntry, plan: _Plan, progress: float) -> None:
        """Undo an interrupted write [22] and apply its partial effects.

        The op's line and ECP changes are rolled back from its undo log
        (newest first, so each record ends at its value before the op),
        and its counts are dropped.  The cells already pulsed disturbed
        their neighbours; those flips stay physically present and
        *undetected* until the retried write's verification finds them.
        The written line itself is left with its old contents plus partial
        programming, which the retry overwrites.  Only a write-cancellation
        scheme records the log, counts and injections.
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
        # The pulses fired wore the demand write's changed cells.
        burned = int(progress * plan.counts[_BACKGROUND_WRITES])
        self.counters.data_cell_writes_demand += burned
