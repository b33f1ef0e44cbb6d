"""PCM endurance / hard-error model (for the Figure 14 lifetime study).

ECP was designed to repair *hard* errors — cells whose endurance is
exhausted and that stick at one resistance level.  As the DIMM ages, hard
errors occupy ECP entries, leaving fewer spares for LazyCorrection's WD
buffering, which increases correction-write frequency (Section 6.4,
"Lifetime impact").

Cell endurance under process variation is commonly modelled lognormal; the
number of failed cells in a 512-cell line after a given fraction of DIMM
lifetime then follows a Poisson-like distribution whose mean grows
super-linearly.  The DIMM's end of life is defined as the point where the
*expected* line needs most of its ECP budget for hard errors; the paper's
ECP-6 DIMM at 100 % lifetime still leaves some spare entries (the observed
degradation is only ~0.2 %), so we calibrate end-of-life mean occupancy to
2 hard errors per line ("If there are two hard errors, LazyC can only
protect up to four WD errors").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

#: Mean hard errors per line when the DIMM reaches its lifetime limit,
#: calibrated from Section 6.4's worked example.
END_OF_LIFE_MEAN_HARD_ERRORS = 2.0

#: Growth exponent of the failure CDF over lifetime: failures concentrate
#: late in life (lognormal endurance under wear levelling).
FAILURE_GROWTH_EXPONENT = 3.0


@dataclass(frozen=True)
class WearModel:
    """Hard-error occupancy as a function of DIMM lifetime fraction."""

    eol_mean_per_line: float = END_OF_LIFE_MEAN_HARD_ERRORS
    growth_exponent: float = FAILURE_GROWTH_EXPONENT

    def __post_init__(self) -> None:
        if self.eol_mean_per_line < 0:
            raise ConfigError("mean hard errors must be >= 0")
        if self.growth_exponent <= 0:
            raise ConfigError("growth exponent must be positive")

    def mean_hard_errors(self, lifetime_fraction: float) -> float:
        """Expected hard errors per line at ``lifetime_fraction`` in [0, 1]."""
        if not 0.0 <= lifetime_fraction <= 1.0:
            raise ConfigError("lifetime fraction must be in [0, 1]")
        return self.eol_mean_per_line * lifetime_fraction**self.growth_exponent

    def sample_line_hard_errors(
        self, lifetime_fraction: float, rng: np.random.Generator, size: int = 1
    ) -> np.ndarray:
        """Sample per-line hard-error counts (Poisson around the mean)."""
        mean = self.mean_hard_errors(lifetime_fraction)
        return rng.poisson(mean, size=size)

