"""The seedable fault sampler behind :class:`~repro.config.FaultConfig`.

A :class:`FaultPlan` answers three questions about any line coordinate:

* which cells are stuck, and at which value (:meth:`stuck_profile`),
* how many of its ECP entries are dead (:meth:`dead_entries`),
* which of a write's vulnerable cells drift-flip right now
  (:meth:`drift_mask`).

Every answer is derived from ``(fault seed, fault kind, line coordinate)``
via a dedicated ``numpy`` RNG stream, so it is a pure function of the plan
and the line — independent of event ordering, of the simulation's main RNG,
and of which other lines were ever queried.  Drift additionally folds in a
per-line query counter, which the strictly sequential write planner makes
deterministic.  This is what keeps faulty cells cacheable: the
:class:`~repro.perf.cellspec.CellSpec` hash covers the ``FaultConfig`` and
nothing else is needed to reproduce the fault pattern.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

import numpy as np

from ..config import LINE_BITS, FaultConfig
from ..errors import FaultInjectionError
from ..pcm import line as L
from ..pcm.array import LineAddress
from ..pcm.cell import CellFault

#: Stream tags keeping the three fault kinds' RNG streams disjoint.
_STUCK_TAG = 0xFA57_0001
_DRIFT_TAG = 0xFA57_0002
_ECP_TAG = 0xFA57_0003


class StuckProfile(NamedTuple):
    """Stuck-at cells of one line, in int-domain mask form."""

    #: Cells that can no longer change phase.
    mask: int
    #: Their frozen read values (subset of ``mask``; see
    #: :class:`~repro.pcm.cell.CellFault`).
    values: int

    @property
    def count(self) -> int:
        return self.mask.bit_count()


_NO_STUCK = StuckProfile(mask=0, values=0)


class FaultPlan:
    """Deterministic per-line fault sampler for one active config."""

    def __init__(self, config: FaultConfig):
        if not config.active:
            raise FaultInjectionError(
                "FaultPlan requires an active FaultConfig; "
                "fault-free runs must not construct a plan"
            )
        self.config = config
        self._stuck: Dict[LineAddress, StuckProfile] = {}
        self._dead: Dict[LineAddress, int] = {}
        self._drift_epoch: Dict[LineAddress, int] = {}

    # -- stuck-at cells ------------------------------------------------------

    def stuck_profile(self, key: LineAddress) -> StuckProfile:
        """The line's stuck cells (memoised; Poisson-distributed count)."""
        profile = self._stuck.get(key)
        if profile is None:
            mean = self.config.stuck_cells_per_line
            if mean <= 0:
                profile = _NO_STUCK
            else:
                rng = np.random.default_rng(
                    (self.config.seed, _STUCK_TAG, *key)
                )
                count = min(int(rng.poisson(mean)), LINE_BITS)
                if count == 0:
                    profile = _NO_STUCK
                else:
                    positions = rng.choice(LINE_BITS, size=count, replace=False)
                    faults = rng.integers(2, size=count)
                    mask = 0
                    values = 0
                    for pos, fault in zip(positions, faults):
                        bit = 1 << int(pos)
                        mask |= bit
                        if CellFault(int(fault)) is CellFault.STUCK_CRYSTALLINE:
                            values |= bit
                    profile = StuckProfile(mask=mask, values=values)
            self._stuck[key] = profile
        return profile

    # -- ECP entry failures --------------------------------------------------

    def dead_entries(self, key: LineAddress, capacity: int) -> int:
        """How many of the line's ``capacity`` ECP entries are dead."""
        if capacity < 0:
            raise FaultInjectionError(f"capacity must be >= 0, got {capacity}")
        dead = self._dead.get(key)
        if dead is None:
            p = self.config.ecp_entry_failure_prob
            if p <= 0 or capacity == 0:
                dead = 0
            else:
                rng = np.random.default_rng((self.config.seed, _ECP_TAG, *key))
                dead = int(rng.binomial(capacity, p))
            self._dead[key] = dead
        return dead

    # -- resistance drift ----------------------------------------------------

    def drift_mask(self, key: LineAddress, vulnerable: int) -> int:
        """Drift flips among ``vulnerable`` cells for the line's next window.

        Each call advances the line's drift epoch, so a line queried at the
        same point in two identical runs sees the same flips, while
        successive writes to one line see fresh independent samples.
        """
        if self.config.drift_flip_prob <= 0:
            return 0
        epoch = self._drift_epoch.get(key, 0)
        self._drift_epoch[key] = epoch + 1
        if vulnerable == 0:
            return 0
        rng = np.random.default_rng(
            (self.config.seed, _DRIFT_TAG, *key, epoch)
        )
        return L.sample_mask_int(vulnerable, self.config.drift_flip_prob, rng)


def build_plan(config: FaultConfig) -> "FaultPlan | None":
    """A plan for active configs, ``None`` for fault-free ones."""
    return FaultPlan(config) if config.active else None
