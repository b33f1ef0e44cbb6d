"""PCM device substrate: cells, arrays, thermal/disturbance models, encoding.

Public surface:

* :mod:`repro.pcm.thermal` / :mod:`repro.pcm.disturbance` /
  :mod:`repro.pcm.scaling` — the device-physics models behind Table 1.
* :mod:`repro.pcm.geometry` — Figure 1 / Section 6.1 density arithmetic.
* :mod:`repro.pcm.array` — bit-accurate cell-array storage.
* :mod:`repro.pcm.din` — word-line disturbance-aware encoding.
* :mod:`repro.pcm.differential_write` — differential-write planning [35].
"""

from .cell import CellState, Pulse, pulse_for
from .differential_write import WritePlan, correction_latency, plan_write
from .din import DINEncoder, EncodedWrite
from .flip_n_write import FlipNWriteEncoder, FNWResult
from .disturbance import DisturbanceModel, default_disturbance_model, table1_rates
from .geometry import (
    DIN_ENHANCED,
    PROTOTYPE,
    SUPER_DENSE,
    CellGeometry,
    capacity_for_equal_array_area,
)
from .scaling import NodeProfile, ScalingModel
from .array import LineAddress, PCMArray
from .thermal import Medium, ThermalModel, default_thermal_model

__all__ = [
    "CellState",
    "Pulse",
    "pulse_for",
    "WritePlan",
    "plan_write",
    "correction_latency",
    "DINEncoder",
    "EncodedWrite",
    "FlipNWriteEncoder",
    "FNWResult",
    "DisturbanceModel",
    "default_disturbance_model",
    "table1_rates",
    "CellGeometry",
    "SUPER_DENSE",
    "DIN_ENHANCED",
    "PROTOTYPE",
    "capacity_for_equal_array_area",
    "NodeProfile",
    "ScalingModel",
    "LineAddress",
    "PCMArray",
    "Medium",
    "ThermalModel",
    "default_thermal_model",
]
