"""Benchmark profiles reproducing Table 3 (simulated applications).

The paper characterises each SPEC CPU2006 / STREAM program by its main-memory
RPKI and WPKI (reads/writes per thousand instructions).  Our synthetic trace
generator additionally needs the locality and data-entropy properties that
the paper's PIN traces carried implicitly; those are set per benchmark from
the program's well-known behaviour and from facts the paper states:

* ``flip_fraction`` — expected fraction of a line's 512 cells changed by a
  write (differential write).  Calibrated so the fleet average produces ~2
  WD errors per adjacent line per write (Figure 4b / Section 4.2) with
  gemsFDTD noted as "changes less bits per write" (Section 6.4).
* ``seq_fraction`` — probability a reference continues a sequential stream
  (STREAM is almost fully streaming; mcf/xalan are pointer-chasing).
* ``working_set_pages`` — footprint the generator draws non-stream
  references from (Zipf-distributed page popularity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import TraceError


@dataclass(frozen=True)
class BenchmarkProfile:
    """Statistical profile of one simulated application (Table 3 row)."""

    name: str
    suite: str
    rpki: float
    wpki: float
    working_set_pages: int
    seq_fraction: float
    zipf_s: float
    flip_fraction: float

    def __post_init__(self) -> None:
        if self.rpki < 0 or self.wpki < 0 or self.rpki + self.wpki == 0:
            raise TraceError("RPKI/WPKI must be non-negative and not both zero")
        if self.working_set_pages <= 0:
            raise TraceError("working set must be positive")
        if not 0.0 <= self.seq_fraction <= 1.0:
            raise TraceError("seq_fraction must be a probability")
        if not 0.0 < self.flip_fraction <= 1.0:
            raise TraceError("flip_fraction must be in (0, 1]")

    @property
    def mpki(self) -> float:
        """Total main-memory accesses per thousand instructions."""
        return self.rpki + self.wpki

    @property
    def write_fraction(self) -> float:
        """Fraction of references that are writes."""
        return self.wpki / self.mpki

    @property
    def mean_gap(self) -> float:
        """Mean non-memory instructions between consecutive references."""
        return 1000.0 / self.mpki


def _p(
    name: str,
    suite: str,
    rpki: float,
    wpki: float,
    pages: int,
    seq: float,
    zipf: float,
    flip: float,
) -> BenchmarkProfile:
    return BenchmarkProfile(name, suite, rpki, wpki, pages, seq, zipf, flip)


#: Table 3, plus generator parameters (see module docstring).
PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in (
        _p("bwaves", "SPEC2006", 17.45, 0.47, 4096, 0.70, 0.8, 0.115),
        _p("gemsFDTD", "SPEC2006", 9.62, 6.67, 4096, 0.60, 0.8, 0.035),
        _p("lbm", "SPEC2006", 14.59, 7.29, 4096, 0.75, 0.7, 0.13),
        _p("leslie3d", "SPEC2006", 2.39, 0.04, 2048, 0.65, 0.9, 0.10),
        _p("mcf", "SPEC2006", 22.38, 20.47, 8192, 0.15, 1.1, 0.12),
        _p("wrf", "SPEC2006", 0.14, 0.02, 1024, 0.50, 1.0, 0.10),
        _p("xalan", "SPEC2006", 0.13, 0.13, 1024, 0.20, 1.2, 0.11),
        _p("zeusmp", "SPEC2006", 4.11, 3.36, 4096, 0.60, 0.9, 0.12),
        _p("stream", "STREAM", 2.32, 2.32, 2048, 0.95, 0.5, 0.14),
    )
}

#: Plot order used throughout the paper's figures.
WORKLOAD_ORDER: List[str] = [
    "bwaves",
    "gemsFDTD",
    "lbm",
    "leslie3d",
    "mcf",
    "stream",
    "wrf",
    "xalan",
    "zeusmp",
]


def profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise TraceError(
            f"unknown benchmark {name!r}; known: {sorted(PROFILES)}"
        ) from None

