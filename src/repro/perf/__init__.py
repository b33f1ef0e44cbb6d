"""Performance engine: parallel, cached execution of simulation cells.

The experiment stack funnels every (workload, scheme) simulation through
this package: :mod:`repro.perf.cellspec` describes one cell and its
content-addressed cache key, :mod:`repro.perf.cache` persists finished
:class:`~repro.core.results.SimulationResult`\\ s on disk, and
:mod:`repro.perf.engine` fans cold cells out over a process pool while
keeping result ordering deterministic.
"""

from .cache import ResultCache
from .cellspec import CACHE_SCHEMA_VERSION, CellSpec, cache_key
from .engine import (
    STATS,
    CellRunner,
    configure,
    get_runner,
    use_runner,
)
from .pool import WARM_POOL, WarmPool

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CellSpec",
    "CellRunner",
    "ResultCache",
    "STATS",
    "WARM_POOL",
    "WarmPool",
    "cache_key",
    "configure",
    "get_runner",
    "use_runner",
]
