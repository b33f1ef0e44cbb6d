"""Statistics: counters, lifetime accounting, energy, report rendering."""

from .counters import Counters
from .energy import EnergyModel, EnergyReport, energy_report

__all__ = [
    "Counters",
    "EnergyModel",
    "EnergyReport",
    "energy_report",
]
