"""Deterministic device-fault injection (wear-out, drift, ECP failures).

The chaos counterpart of the happy-path simulator: a seedable
:class:`~repro.faults.plan.FaultPlan` overlays stuck-at cells, resistance
drift flips, and dead ECP entries onto the device model, driving the
``ECPExhaustedError`` fallback and LazyCorrection overflow paths that
fault-free runs never reach.  A faulty cell is one built with an active
config: ``experiments.common.cell(..., faults=FaultConfig(...))``.
"""

from ..config import FaultConfig
from .plan import FaultPlan, StuckProfile, build_plan

__all__ = ["FaultConfig", "FaultPlan", "StuckProfile", "build_plan"]
