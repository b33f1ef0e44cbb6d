"""PCM cell thermal model.

Models the inter-cell temperature reached by an *idle* neighbour while a cell
is RESET, as a function of feature size, cell pitch, and the isolating medium
between the two cells.  This stands in for the device-level model the paper
inherits from DIN [10]; it is an exponential lateral-decay model

    T(pitch) = RESET_PEAK * exp(-(pitch - F) / lambda_medium(F))

calibrated so that all of the paper's published anchor points hold exactly:

* F = 20 nm, pitch 2F, oxide (word-line direction):  310 C   (Table 1)
* F = 20 nm, pitch 2F, GST uTrench rail (bit-line):  320 C   (Table 1)
* prototype-chip spacings (3F / 4F pitch) fall below the 300 C
  crystallisation threshold, i.e. are WD-free (Figure 1b)
* a 2F-pitch neighbour is exactly at threshold at the 54 nm node, where WD
  was first observed [15]

The decay length scales sub-linearly with feature size,
``lambda(F) = lambda_20 * (F/20)**alpha``; ``alpha`` is solved from the 54 nm
onset anchor.  Oxide isolates better than GST, so its decay length is
shorter and word-line neighbours run cooler than bit-line neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from ..errors import ConfigError
from . import constants as C


class Medium(Enum):
    """The material separating two neighbouring cells."""

    #: Shared GST chalcogenide rail along a bit-line (uTrench structure [18]).
    GST = "gst"
    #: Oxide dielectric between bit-lines, i.e. between word-line neighbours.
    OXIDE = "oxide"


def _decay_length_at_20nm(anchor_temp_c: float, feature_nm: float = C.NODE_NM) -> float:
    """Solve lambda_20 from ``T(2F) = anchor`` at F = 20 nm.

    T(2F) = PEAK * exp(-(2F - F)/lambda)  =>  lambda = F / ln(PEAK/anchor)
    """
    ratio = C.RESET_PEAK_C / anchor_temp_c
    return feature_nm / math.log(ratio)


def _scaling_exponent(lambda_20: float) -> float:
    """Solve alpha so a 2F neighbour is at threshold exactly at 54 nm.

    At node F: T(2F) = PEAK * exp(-F / lambda(F)), lambda(F) = lambda_20*(F/20)^a.
    Setting T = CRYSTALLIZATION_C at F = FIRST_WD_NODE gives

        lambda(F54) = F54 / ln(PEAK/THRESH)
        a = ln(lambda(F54)/lambda_20) / ln(F54/20)
    """
    needed = C.FIRST_WD_NODE_NM / math.log(C.RESET_PEAK_C / C.CRYSTALLIZATION_C)
    return math.log(needed / lambda_20) / math.log(C.FIRST_WD_NODE_NM / C.NODE_NM)


@dataclass(frozen=True)
class ThermalModel:
    """Analytic inter-cell thermal model, calibrated at construction.

    Parameters are derived from the anchor constants; custom anchors can be
    supplied for sensitivity studies.
    """

    reset_peak_c: float = C.RESET_PEAK_C
    ambient_c: float = C.AMBIENT_C
    anchor_wordline_c: float = C.ANCHOR_WORDLINE_TEMP_C
    anchor_bitline_c: float = C.ANCHOR_BITLINE_TEMP_C

    def __post_init__(self) -> None:
        if not self.ambient_c < self.anchor_wordline_c < self.reset_peak_c:
            raise ConfigError("anchor temperatures must order ambient < anchor < peak")
        if not self.ambient_c < self.anchor_bitline_c < self.reset_peak_c:
            raise ConfigError("anchor temperatures must order ambient < anchor < peak")

    @property
    def lambda_gst_20(self) -> float:
        """Lateral decay length (nm) through the GST rail at F = 20 nm."""
        return _decay_length_at_20nm(self.anchor_bitline_c)

    @property
    def lambda_oxide_20(self) -> float:
        """Lateral decay length (nm) through oxide at F = 20 nm."""
        return _decay_length_at_20nm(self.anchor_wordline_c)

    @property
    def scaling_alpha(self) -> float:
        """Exponent of ``lambda(F) ~ F**alpha`` (WD onset at 54 nm)."""
        return _scaling_exponent(self.lambda_gst_20)

    def decay_length(self, medium: Medium, feature_nm: float = C.NODE_NM) -> float:
        """Decay length in nm for ``medium`` at technology node ``feature_nm``."""
        if feature_nm <= 0:
            raise ConfigError("feature size must be positive")
        base = self.lambda_gst_20 if medium is Medium.GST else self.lambda_oxide_20
        return base * (feature_nm / C.NODE_NM) ** self.scaling_alpha

    def neighbour_temperature(
        self,
        pitch_nm: float,
        medium: Medium,
        feature_nm: float = C.NODE_NM,
    ) -> float:
        """Temperature (Celsius) of an idle neighbour during a RESET.

        ``pitch_nm`` is the centre-to-centre distance between the disturbing
        and the idle cell; it cannot be below the feature size (cells would
        overlap).
        """
        if pitch_nm < feature_nm:
            raise ConfigError(
                f"pitch {pitch_nm} nm below feature size {feature_nm} nm"
            )
        lam = self.decay_length(medium, feature_nm)
        temp = self.reset_peak_c * math.exp(-(pitch_nm - feature_nm) / lam)
        return max(temp, self.ambient_c)

    def is_wd_free(
        self,
        pitch_nm: float,
        medium: Medium,
        feature_nm: float = C.NODE_NM,
    ) -> bool:
        """Whether a neighbour at ``pitch_nm`` stays below crystallisation."""
        return (
            self.neighbour_temperature(pitch_nm, medium, feature_nm)
            < C.CRYSTALLIZATION_C
        )


@lru_cache(maxsize=1)
def default_thermal_model() -> ThermalModel:
    """The shared, paper-calibrated thermal model instance."""
    return ThermalModel()
