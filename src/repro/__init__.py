"""SD-PCM: Constructing Reliable Super Dense Phase Change Memory under
Write Disturbance — a full reproduction of the ASPLOS 2015 paper.

Top-level convenience exports; see README.md for the package map.
"""

from .config import (
    DisturbanceConfig,
    FaultConfig,
    MemoryConfig,
    SchemeConfig,
    SystemConfig,
    TimingConfig,
)
from .core import SDPCMSystem, SimulationResult, schemes, simulate
from .errors import ReproError
from .traces.workload import Workload, homogeneous_workload

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "TimingConfig",
    "MemoryConfig",
    "SchemeConfig",
    "DisturbanceConfig",
    "FaultConfig",
    "SDPCMSystem",
    "SimulationResult",
    "simulate",
    "schemes",
    "Workload",
    "homogeneous_workload",
    "ReproError",
]
