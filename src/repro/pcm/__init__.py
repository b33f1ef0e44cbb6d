"""PCM device substrate: cells, arrays, thermal/disturbance models, encoding.

Every line — stored image, WD error mask, sampling mask — is one 512-bit
Python int (bit ``i`` = cell ``i``; :mod:`repro.pcm.line` has the layout
and the bit kernels).  The ``(N, 8)`` uint64 row batches in
:mod:`repro.pcm.line` and :mod:`repro.pcm.din` serve only the numpy
kernel backend, and the ``_scalar_*`` array kernels only the equivalence
tests.

Public surface:

* :mod:`repro.pcm.thermal` / :mod:`repro.pcm.disturbance` /
  :mod:`repro.pcm.scaling` — the device-physics models behind Table 1.
* :mod:`repro.pcm.geometry` — Figure 1 / Section 6.1 density arithmetic.
* :mod:`repro.pcm.array` — bit-accurate cell-array storage.
* :mod:`repro.pcm.din` / :mod:`repro.pcm.flip_n_write` — word-line
  disturbance-aware encoding and its wear-oriented baseline [7].
* :mod:`repro.pcm.differential_write` — programming-round latency [35].
"""

from .differential_write import correction_latency
from .din import DINEncoder
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
    "correction_latency",
    "DINEncoder",
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
