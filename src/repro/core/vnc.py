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
and the returned :class:`~repro.mem.controller.WriteOp` applies every
mutation in ``commit()`` (write cancellation instead calls ``cancel()``,
which applies only the partial disturbance of the pulses already fired).

Planning works in the **int domain** (512-bit integers, see
:mod:`repro.pcm.line`): shadow states, masks, and sampling all use Python
big-integer bitwise ops, which beat 8-word numpy ufuncs by 3-10x on this
size.  Array form is produced only at the commit boundary.  All RNG draws
happen in the same order and with the same counts as the original
array-domain implementation, so results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..alloc.strips import adjacent_usage, is_no_use
from ..config import LINE_BITS, DisturbanceConfig, SchemeConfig, TimingConfig
from ..ecp.chip import ECPChip
from ..ecp.wear import WearModel
from ..errors import ECPExhaustedError, SimulationError
from ..faults.plan import FaultPlan
from ..mem.controller import WriteOp
from ..mem.request import PrereadSlot, Request, WriteEntry
from ..pcm import kernels
from ..pcm import line as L
from ..pcm import stateplane
from ..pcm.array import LineAddress, PCMArray
from ..pcm.differential_write import (
    correction_latency,
    plan_write_int,
)
from ..pcm.din import DINEncoder, wordline_vulnerable_mask_int

Key = Tuple[int, int, int]

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

_LINE_BYTES = LINE_BITS // 8


def _key(addr: LineAddress) -> Key:
    return (addr.bank, addr.row, addr.line)


class _Shadow:
    """Copy-on-write planning state for one line (int-domain masks)."""

    __slots__ = ("stored", "disturbed", "write_back")

    def __init__(self, stored: int, disturbed: int, write_back: bool = False):
        self.stored = stored
        self.disturbed = disturbed
        self.write_back = write_back

    @property
    def physical(self) -> int:
        return self.stored | self.disturbed


@dataclass
class _Plan:
    """Everything one composite write op will do."""

    latency: int = 0
    #: Shadow line states to write back on commit.
    shadows: Dict[Key, _Shadow] = field(default_factory=dict)
    #: flags value for the written line.
    written_flags: int = 0
    written_key: Optional[Key] = None
    #: ECP mutations: key -> (clear_wd, [fresh wd positions])
    ecp_clears: Set[Key] = field(default_factory=set)
    ecp_records: Dict[Key, List[int]] = field(default_factory=dict)
    #: Deferred counter increments, merged per attribute.
    counts: Dict[str, int] = field(default_factory=dict)
    adjacent_notes: List[int] = field(default_factory=list)
    wordline_note: int = 0
    #: uncovered-mask resolution: keys whose pending uncovered bits were
    #: detected and handled by this op.
    uncovered_resolved: Set[Key] = field(default_factory=set)
    #: First-level injections (victim addr, sampled int mask) for cancel().
    injections: List[Tuple[LineAddress, int]] = field(default_factory=list)
    #: Demand-write cell changes (wear + partial-cancel accounting).
    demand_cell_writes: int = 0

    def bump(self, attr: str, delta: int = 1) -> None:
        counts = self.counts
        counts[attr] = counts.get(attr, 0) + delta


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
        self.encoder = DINEncoder()
        #: The process-wide active bit-kernel backend, captured at
        #: construction (the engine activates its pick before any
        #: executor is built; every backend is byte-identical).
        self.kernels = kernels.active()
        self.flip_fractions = flip_fractions or []
        self.default_flip = 0.14
        #: Per-line demand-write epoch, for PreRead staleness checks.
        self.epochs: Dict[Key, int] = {}
        #: Disturbed-but-undetected bits left by cancelled partial writes
        #: (int-domain masks).
        self.uncovered: Dict[Key, int] = {}
        #: Positions ever buffered per line (ECP differential-write wear).
        self._ecp_seen: Dict[Key, Set[int]] = {}
        self.lifetime_fraction = lifetime_fraction
        self._wear_model = wear_model or WearModel()
        self._hard_seeded: Set[Key] = set()
        #: Injected-fault state (all sampling uses the plan's own streams,
        #: never ``self.rng``, so fault-free sample paths are untouched).
        self.fault_plan = fault_plan
        self._fault_seeded: Set[Key] = set()
        #: Stuck cells the line's exhausted ECP could not cover (int masks).
        self._stuck_uncovered: Dict[Key, int] = {}
        #: Per-line masks of disturbance-prone cells (process variation).
        self._weak_masks: Dict[Key, int] = {}
        #: Per-line pools of recurring write flip patterns (data entropy).
        self._flip_pools: Dict[Key, List[int]] = {}

    # -- WriteExecutor interface ---------------------------------------------

    def preread_slots(self, request: Request) -> List[PrereadSlot]:
        """Adjacent lines needing verification for this write (0..2)."""
        if self.scheme.wd_free_bitlines or not self.scheme.vnc:
            return []
        n, m = request.nm_tag
        addr = request.addr
        # For (1:2) both neighbours are no-use and adjacent_usage returns
        # (False, False) except at the conservative 64 MB block edges.
        verify_top, verify_bottom = adjacent_usage(addr.row, n, m)
        slots: List[PrereadSlot] = []
        if verify_top and addr.row > 0:
            slots.append(PrereadSlot(addr=LineAddress(addr.bank, addr.row - 1, addr.line)))
        if verify_bottom and addr.row + 1 < self.array.rows_per_bank:
            slots.append(PrereadSlot(addr=LineAddress(addr.bank, addr.row + 1, addr.line)))
        return slots

    def capture_baseline(self, slot: PrereadSlot) -> None:
        """PreRead completion: snapshot the victim's pre-write state."""
        key = _key(slot.addr)
        slot.baseline = self.array.disturbed_mask(slot.addr).copy()
        slot.epoch = self.epochs.get(key, 0)

    def execute(self, entry: WriteEntry, now: int) -> WriteOp:
        plan = self._plan(entry)
        return WriteOp(
            latency=plan.latency,
            commit=lambda: self._commit(entry, plan),
            cancel=lambda progress: self._cancel(entry, plan, progress),
        )

    # -- planning ---------------------------------------------------------------

    def _flip_fraction(self, core: int) -> float:
        if 0 <= core < len(self.flip_fractions):
            return self.flip_fractions[core]
        return self.default_flip

    #: Per-line pool of recurring flip patterns and the reuse probability.
    #: Real applications rewrite the same fields of the same lines, so the
    #: set of cells a line's writes toggle is far smaller than random data
    #: would suggest; PIN-captured traces carry that low entropy
    #: implicitly, and the pool reproduces it.
    FLIP_POOL_SIZE = 3
    FLIP_REUSE_PROB = 0.8

    def _flip_mask(self, entry: WriteEntry) -> int:
        key = _key(entry.addr)
        pool = self._flip_pools.setdefault(key, [])
        if pool and (
            len(pool) >= self.FLIP_POOL_SIZE
            or self.rng.random() < self.FLIP_REUSE_PROB
        ):
            return pool[int(self.rng.integers(len(pool)))]
        fraction = self._flip_fraction(entry.request.core)
        mask = self.kernels.mask_from_draws(
            self.rng.random(LINE_BITS), fraction
        )
        pool.append(mask)
        return mask

    def _payload_int(self, entry: WriteEntry, logical_old: int) -> int:
        """The write's logical data, synthesised once per entry.

        ``entry.payload`` keeps the public array form; the int form is
        cached alongside so retried writes skip the conversion.
        """
        cached = entry.payload_int
        if cached is None:
            if entry.payload is not None:
                cached = L.to_int(entry.payload)
            else:
                cached = logical_old ^ self._flip_mask(entry)
                entry.payload = L.from_int(cached)
            entry.payload_int = cached
        return cached

    def _invulnerable_int(self, key: Key) -> int:
        """Cells of a line immune to WD: stuck-at (hard-error) cells.

        Covers both ECP-registered hard errors and injected stuck cells
        the exhausted ECP could not register — a worn-out cell has no
        phase left to change either way.
        """
        stuck = 0
        if self.fault_plan is not None:
            stuck = self.fault_plan.stuck_profile(key).mask
        line = self.ecp.peek(key)
        if line is not None and line.hard_count:
            stuck |= L.to_int(line.hard_mask())
        return stuck

    def _weak_mask(self, key: Key) -> int:
        """The line's fixed set of disturbance-prone cells [4, 13, 25].

        Deterministic per line coordinate so repeated disturbance hits the
        same cells regardless of event ordering.
        """
        mask = self._weak_masks.get(key)
        if mask is None:
            # Delegated to the process-wide state plane: the mask is a pure
            # function of (fraction, key), so executors across cells and
            # batches share one generation.  The per-executor dict stays as
            # the in-plan fast path (no plane probe per sample).
            mask = stateplane.PLANE.weak_mask(
                self.disturbance.weak_cell_fraction, key
            )
            self._weak_masks[key] = mask
        return mask

    def _shadow(self, plan: _Plan, addr: LineAddress) -> _Shadow:
        key = _key(addr)
        shadow = plan.shadows.get(key)
        if shadow is None:
            state = self.array.row_state(addr.bank, addr.row)
            line = addr.line
            shadow = _Shadow(
                stored=int.from_bytes(state.stored[line].tobytes(), "little"),
                disturbed=int.from_bytes(
                    state.disturbed[line].tobytes(), "little"
                ),
            )
            plan.shadows[key] = shadow
        return shadow

    def _ecp_line(self, key: Key):
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

    def _fault_seed(self, key: Key, line) -> None:
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
        scheme = self.scheme
        addr = entry.addr
        key = _key(addr)
        backend = self.kernels

        # ---- the data write itself ---------------------------------------
        shadow = self._shadow(plan, addr)
        physical_old = shadow.physical
        logical_old = backend.decode_int(
            shadow.stored, self.array.line_flags(addr)
        )
        new_logical = self._payload_int(entry, logical_old)
        stored_new, flags = backend.encode_stored_int(
            physical_old, new_logical
        )
        wplan = plan_write_int(physical_old, stored_new, self.timing)
        plan.latency += wplan.latency_cycles
        plan.demand_cell_writes = wplan.changed_bits
        plan.written_key = key
        plan.written_flags = flags
        plan.bump("data_cell_writes_demand", wplan.changed_bits)
        plan.bump("ecp_cell_writes_background", wplan.changed_bits)

        # ---- word-line disturbance (suppressed by DIN, checked in-write) ---
        if self.disturbance.enabled:
            changed = wplan.reset_mask | wplan.set_mask
            wl_vuln = wordline_vulnerable_mask_int(
                physical_old, wplan.reset_mask, changed
            )
            p_wl = self.disturbance.p_wordline * self.disturbance.din_residual_scale
            wl_sampled = backend.sample_mask_int(wl_vuln, p_wl, self.rng)
            wl_errors = wl_sampled.bit_count()
            plan.bump("wordline_vulnerable_cells", wl_vuln.bit_count())
            plan.bump("wordline_errors", wl_errors)
            plan.wordline_note = wl_errors
            if wl_errors:
                # DIN's in-write check rewrites the disturbed cells: one
                # extra RESET round (both DIN and SD-PCM pay this).
                plan.latency += self.timing.reset_cycles
                plan.bump("data_cell_writes_demand", wl_errors)

        # Shadow commit of the written line: stored image in, flips cleared.
        shadow.stored = stored_new
        shadow.disturbed = 0
        shadow.write_back = True
        if key in self.uncovered:
            plan.uncovered_resolved.add(key)
        # A demand write makes the line's buffered WD corrections stale:
        # the rewrite physically repairs every deviating cell ("a normal
        # write operation clears the accumulated WD errors in ECP").
        existing_ecp = self.ecp.peek(key)
        if existing_ecp is not None and existing_ecp.wd_count:
            plan.bump("ecp_cleared_by_write", existing_ecp.wd_count)
            plan.ecp_clears.add(key)

        # ---- stuck-at faults on the written line ---------------------------
        if self.fault_plan is not None:
            stuck = self.fault_plan.stuck_profile(key)
            if stuck.mask:
                # Materialise the line's ECP cover (and the exhaustion
                # fallback) on first touch, then charge the bits no entry
                # covers and whose frozen value disagrees with this write.
                self._ecp_line(key)
                uncovered = self._stuck_uncovered.get(key, 0)
                wrong = L.stuck_error_mask_int(
                    stored_new, stuck.mask, stuck.values
                ) & uncovered
                if wrong:
                    plan.bump("uncorrectable_bits", wrong.bit_count())

        if scheme.wd_free_bitlines or not self.disturbance.enabled:
            return plan  # 8F^2 chip: no bit-line WD, no VnC.

        # ---- pre-write reads ------------------------------------------------
        victims: List[LineAddress] = []
        for slot in entry.slots:
            victims.append(slot.addr)
            vkey = _key(slot.addr)
            if slot.forwarded:
                pass  # satisfied from the write queue, no array access
            elif slot.done and slot.epoch == self.epochs.get(vkey, 0):
                plan.bump("preread_hits")
            elif slot.done:
                plan.bump("preread_stale")
                plan.latency += self.timing.read_cycles
            else:
                plan.bump("pre_write_reads")
                plan.latency += self.timing.read_cycles

        # ---- bit-line disturbance injection --------------------------------
        # Vulnerable/weak masks are computed per victim, then both
        # neighbours are sampled in one batched call (RNG-stream-equivalent
        # to per-victim sampling; nothing between the draws touches
        # ``self.rng``).
        detected: List[Tuple[LineAddress, int]] = []
        injection_targets = victims if scheme.vnc else [
            nb for nb in self.array.bitline_neighbours(addr)
        ]
        staged: List[Tuple[LineAddress, _Shadow, int, int, int]] = []
        for vaddr in injection_targets:
            vshadow = self._shadow(plan, vaddr)
            vulnerable = wplan.reset_mask & (vshadow.physical ^ L.MASK_ALL)
            stuck = self._invulnerable_int(_key(vaddr))
            if stuck:
                vulnerable &= stuck ^ L.MASK_ALL
            weak = vulnerable & self._weak_mask(_key(vaddr))
            drift = 0
            if self.fault_plan is not None:
                # Resistance drift: any idle amorphous (non-stuck) cell can
                # have drifted since the last verification, not just cells
                # under this write's RESET pulses.  Sampled from the plan's
                # own stream, so it never perturbs ``self.rng``.
                candidates = (vshadow.physical ^ L.MASK_ALL) & (
                    stuck ^ L.MASK_ALL
                )
                drift = self.fault_plan.drift_mask(_key(vaddr), candidates)
            staged.append((vaddr, vshadow, vulnerable, weak, drift))
        sampled_masks = backend.sample_masks_int(
            [weak for _, _, _, weak, _ in staged],
            self.disturbance.p_bitline_weak,
            self.rng,
        )
        for (vaddr, vshadow, vulnerable, _, drift), sampled in zip(
            staged, sampled_masks
        ):
            errors = sampled.bit_count()
            plan.bump("bitline_vulnerable_cells", vulnerable.bit_count())
            plan.bump("bitline_errors", errors)
            plan.adjacent_notes.append(errors)
            new_drift = drift & ~sampled
            if new_drift:
                plan.bump("drift_flips", new_drift.bit_count())
                sampled |= new_drift
            vshadow.disturbed |= sampled
            vshadow.write_back = True
            plan.injections.append((vaddr, sampled))
            if scheme.vnc:
                vkey = _key(vaddr)
                pending = self.uncovered.get(vkey)
                if pending is not None:
                    sampled |= pending & vshadow.disturbed
                    plan.uncovered_resolved.add(vkey)
                detected.append((vaddr, sampled))

        if not scheme.vnc:
            # Unprotected super dense PCM: disturbance lands undetected.
            for vaddr, sampled in plan.injections:
                if sampled:
                    vkey = _key(vaddr)
                    self.uncovered[vkey] = self.uncovered.get(vkey, 0) | sampled
            return plan

        # ---- verification ---------------------------------------------------
        plan.latency += self.timing.read_cycles * len(victims)
        plan.bump("verify_reads", len(victims))
        plan.bump("verifications", len(victims))

        # ---- correction / LazyCorrection ------------------------------------
        nm_tag = entry.request.nm_tag
        for vaddr, new_mask in detected:
            self._handle_errors(plan, vaddr, new_mask, nm_tag, depth=0)
        return plan

    def _handle_errors(
        self,
        plan: _Plan,
        vaddr: LineAddress,
        new_mask: int,
        nm_tag: Tuple[int, int],
        depth: int,
    ) -> None:
        """Absorb (LazyC) or correct the new WD errors of one victim line."""
        if not new_mask:
            return
        new_positions = self.kernels.bit_positions_int(new_mask)
        vkey = _key(vaddr)
        ecp_line = self._ecp_line(vkey)
        planned_wd = plan.ecp_records.setdefault(vkey, [])
        if vkey in plan.ecp_clears:
            already = set(planned_wd)
        else:
            already = {e.position for e in ecp_line.entries} | set(planned_wd)
        fresh = [p for p in new_positions if p not in already]

        if self.scheme.lazy_correction:
            occupied = (
                len(planned_wd) + ecp_line.hard_count
                if vkey in plan.ecp_clears
                else ecp_line.occupied + len(planned_wd)
            )
            if occupied + len(fresh) <= ecp_line.capacity:
                planned_wd.extend(fresh)
                plan.bump("ecp_absorbed_errors", len(new_positions))
                plan.bump("ecp_entries_programmed", len(fresh))
                if fresh and not self.scheme.low_density_ecp:
                    # Ablation (Section 4.2): a naive super dense ECP chip
                    # suffers WD on its own entry writes, so programming
                    # entries needs its own verify-and-correct pass.
                    plan.latency += (
                        2 * self.timing.read_cycles + self.timing.reset_cycles
                    )
                return
            plan.bump("ecp_overflows")

        # ---- correction write -------------------------------------------------
        vshadow = self._shadow(plan, vaddr)
        corr_mask = vshadow.disturbed
        corr_bits = corr_mask.bit_count()
        # A correction is a RESET-only write plus one additional
        # verification read (Section 6.8's cost: "2 correction write
        # operations (RESET), and additional verifications for correction
        # writes").  The near neighbour's contents are already in the
        # controller's buffers from this very op, so only the far
        # neighbour costs an array read.
        plan.latency += self.timing.read_cycles
        plan.latency += correction_latency(corr_bits, self.timing)
        plan.bump("data_cell_writes_correction", corr_bits)
        plan.bump("corrections" if depth == 0 else "cascade_corrections")
        vshadow.disturbed = 0
        vshadow.write_back = True
        plan.ecp_clears.add(vkey)
        plan.ecp_records[vkey] = []
        if vkey in self.uncovered:
            plan.uncovered_resolved.add(vkey)

        # Cascade: the correction's RESET pulses disturb vaddr's neighbours.
        # At realistic disturbance rates the cascade decays geometrically
        # (each correction RESETs only a handful of cells); the depth cap
        # only matters for stress configurations with p ~ 1, where further
        # injection is suppressed so the op terminates.
        if depth >= MAX_CASCADE_DEPTH:
            plan.bump("cascade_truncations")
            return
        if is_no_use(vaddr.row, *nm_tag):
            # The conservative block-edge rule can verify (and correct) a
            # line in a *no-use* strip of the same allocator; it holds no
            # data, so its correction needs no cascade verification.
            return
        verify_top, verify_bottom = adjacent_usage(vaddr.row, *nm_tag)
        neighbours: List[LineAddress] = []
        if verify_top and vaddr.row > 0:
            neighbours.append(LineAddress(vaddr.bank, vaddr.row - 1, vaddr.line))
        if verify_bottom and vaddr.row + 1 < self.array.rows_per_bank:
            neighbours.append(LineAddress(vaddr.bank, vaddr.row + 1, vaddr.line))
        plan.bump("verify_reads", 1)
        for waddr in neighbours:
            wshadow = self._shadow(plan, waddr)
            vulnerable = corr_mask & (wshadow.physical ^ L.MASK_ALL)
            stuck = self._invulnerable_int(_key(waddr))
            if stuck:
                vulnerable &= stuck ^ L.MASK_ALL
            weak = vulnerable & self._weak_mask(_key(waddr))
            sampled = self.kernels.sample_mask_int(
                weak, self.disturbance.p_bitline_weak, self.rng
            )
            if not sampled:
                continue
            plan.bump("bitline_errors", sampled.bit_count())
            wshadow.disturbed |= sampled
            wshadow.write_back = True
            self._handle_errors(plan, waddr, sampled, nm_tag, depth + 1)

    # -- commit / cancel -----------------------------------------------------------

    def _commit(self, entry: WriteEntry, plan: _Plan) -> None:
        array = self.array
        # Line states (int shadows back to the (8,) uint64 row arrays).
        for key, shadow in plan.shadows.items():
            if not shadow.write_back:
                continue
            bank, row, line = key
            state = array.row_state(bank, row)
            state.stored[line] = np.frombuffer(
                shadow.stored.to_bytes(_LINE_BYTES, "little"), L.WORD_DTYPE
            )
            state.disturbed[line] = np.frombuffer(
                shadow.disturbed.to_bytes(_LINE_BYTES, "little"), L.WORD_DTYPE
            )
            if key == plan.written_key:
                state.flags[line] = np.uint64(plan.written_flags)
        # ECP state.
        wkey = plan.written_key
        for key in plan.ecp_clears:
            line = self.ecp.peek(key)
            if line is not None:
                line.clear_wd()
        for key, positions in plan.ecp_records.items():
            if not positions:
                continue
            line = self._ecp_line(key)
            outcome = line.record_wd_errors((p, 0) for p in positions)
            if not outcome.absorbed:
                raise SimulationError("planned ECP absorption failed at commit")
            seen = self._ecp_seen.setdefault(key, set())
            wear = 0
            for p in positions:
                wear += REPEAT_ENTRY_BITS if p in seen else NOVEL_ENTRY_BITS
                seen.add(p)
            self.counters.ecp_cell_writes_wd += wear
        # Uncovered bookkeeping.
        for key in plan.uncovered_resolved:
            self.uncovered.pop(key, None)
        # Epoch bump for the written line (PreRead staleness).
        if wkey is not None:
            self.epochs[wkey] = self.epochs.get(wkey, 0) + 1
        # Counters.
        counters = self.counters
        for attr, delta in plan.counts.items():
            setattr(counters, attr, getattr(counters, attr) + delta)
        for note in plan.adjacent_notes:
            counters.note_adjacent_errors(note)
        counters.note_wordline_errors(plan.wordline_note)

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
            applied = self.array.disturb(vaddr, L.from_int(partial))
            if applied:
                vkey = _key(vaddr)
                merged = self.uncovered.get(vkey, 0) | partial
                self.uncovered[vkey] = merged & L.to_int(
                    self.array.disturbed_mask(vaddr)
                )
                self.counters.partial_write_errors += applied
        burned = int(progress * plan.demand_cell_writes)
        self.counters.data_cell_writes_demand += burned
