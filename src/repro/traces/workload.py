"""Multiprogrammed workload composition (Section 5.2).

"Each core runs one copy of these applications, forming multi-programming
workloads running in different virtual address spaces."  A
:class:`Workload` therefore bundles one trace per core; cores get
distinct RNG streams and disjoint virtual page ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import TraceError
from .profiles import BenchmarkProfile, profile
from .record import TraceArray
from .synthetic import SyntheticTraceGenerator


@dataclass(frozen=True)
class Workload:
    """Named bundle of per-core traces plus their source profiles."""

    name: str
    traces: List[TraceArray]
    profiles: List[BenchmarkProfile]
    flip_fractions: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.traces:
            raise TraceError("workload needs at least one core trace")
        if len(self.traces) != len(self.profiles):
            raise TraceError("one profile per core trace required")
        if not self.flip_fractions:
            object.__setattr__(
                self, "flip_fractions", [p.flip_fraction for p in self.profiles]
            )

    @property
    def cores(self) -> int:
        return len(self.traces)

    @property
    def total_instructions(self) -> int:
        return sum(len(t) + int(t.gap.sum()) for t in self.traces)


def homogeneous_workload(
    benchmark: str, cores: int = 8, length: int = 20_000, seed: int = 0
) -> Workload:
    """The paper's workload style: every core runs a copy of one program."""
    bench = profile(benchmark)
    traces = [
        SyntheticTraceGenerator(
            bench, seed=seed, core=c, base_page=c * bench.working_set_pages
        ).generate(length)
        for c in range(cores)
    ]
    return Workload(benchmark, traces, [bench] * cores)

