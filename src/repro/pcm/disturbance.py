"""PCM thermal disturbance model: temperature -> bit error probability.

The paper (Section 2.2.2) feeds the disturbance temperature of an idle
neighbour into a "PCM thermal disturbance model" to obtain a per-cell WD
error rate.  We model crystallisation of the idle amorphous cell during the
100 ns RESET pulse as a thermally activated (Arrhenius) process:

    P(T) = 1 - exp(-t_pulse * k0 * exp(-Ea / (kB * T)))      for T >= 300 C
    P(T) = 0                                                  below 300 C

``Ea`` and ``k0`` are solved from the two Table 1 anchors
(310 C -> 9.9 %, 320 C -> 11.5 %), so the model reproduces Table 1 exactly
and interpolates/extrapolates plausibly for sensitivity studies.  Below the
crystallisation threshold no nucleation occurs within a pulse, hence the
hard cut-off (this matches the paper's WD-free claims for 3F/4F spacing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ..errors import ConfigError
from . import constants as C
from .thermal import Medium, default_thermal_model


@lru_cache(maxsize=1)
def _solve_arrhenius() -> tuple[float, float]:
    """Solve (Ea_eV, k0_per_s) from the two Table 1 anchor points.

    Cached: the anchors are module constants, so the solution never
    changes, yet ``error_rate`` is on the per-write hot path.
    """
    t1 = C.ANCHOR_WORDLINE_TEMP_C + C.KELVIN_OFFSET
    t2 = C.ANCHOR_BITLINE_TEMP_C + C.KELVIN_OFFSET
    h1 = -math.log1p(-C.ANCHOR_WORDLINE_RATE)  # cumulative hazard at t1
    h2 = -math.log1p(-C.ANCHOR_BITLINE_RATE)
    # h2/h1 = exp(-(Ea/kB) * (1/t2 - 1/t1))
    ea_over_kb = math.log(h2 / h1) / (1.0 / t1 - 1.0 / t2)
    ea = ea_over_kb * C.BOLTZMANN_EV
    k0 = h1 / (C.RESET_PULSE_S * math.exp(-ea_over_kb / t1))
    return ea, k0


@dataclass(frozen=True)
class DisturbanceModel:
    """Arrhenius crystallisation model calibrated to Table 1.

    ``threshold_c`` is the crystallisation onset below which the disturbance
    probability is exactly zero.
    """

    pulse_s: float = C.RESET_PULSE_S
    threshold_c: float = C.CRYSTALLIZATION_C

    def __post_init__(self) -> None:
        if self.pulse_s <= 0:
            raise ConfigError("pulse duration must be positive")

    def error_rate(self, temperature_c: float) -> float:
        """Probability an idle amorphous cell is disturbed at ``temperature_c``.

        Returns 0 below the crystallisation threshold and at/above melt the
        cell would be rewritten rather than disturbed, so the model caps the
        input at the melting point.
        """
        if temperature_c < self.threshold_c:
            return 0.0
        temperature_c = min(temperature_c, C.MELT_C)
        ea, k0 = _solve_arrhenius()
        t_k = temperature_c + C.KELVIN_OFFSET
        hazard = self.pulse_s * k0 * math.exp(-ea / (C.BOLTZMANN_EV * t_k))
        return 1.0 - math.exp(-hazard)


@lru_cache(maxsize=1)
def default_disturbance_model() -> DisturbanceModel:
    """The shared, paper-calibrated disturbance model instance."""
    return DisturbanceModel()


def table1_rates(feature_nm: float = C.NODE_NM) -> dict[str, dict[str, float]]:
    """Recompute Table 1 (disturbance temperature and SLC error rate).

    Returns a mapping ``{"word-line": {...}, "bit-line": {...}}`` with the
    2F-pitch disturbance temperature (as a rise, the way Table 1 reports it)
    and error rate at the requested node.
    """
    thermal = default_thermal_model()
    model = default_disturbance_model()
    pitch = 2.0 * feature_nm
    out: dict[str, dict[str, float]] = {}
    for label, medium in (("word-line", Medium.OXIDE), ("bit-line", Medium.GST)):
        temp = thermal.neighbour_temperature(pitch, medium, feature_nm)
        out[label] = {
            "temperature_c": temp,
            "error_rate": model.error_rate(temp),
        }
    return out
