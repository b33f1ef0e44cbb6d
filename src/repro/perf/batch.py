"""In-process execution of a batch of cells.

:func:`simulate_batch` is the engine's serial path: it advances each
spec with :func:`~repro.perf.cellspec.simulate_cell` in submission
order and streams every result to the caller as it finishes.  Each cell
is an independent simulation seeded from its own spec, so the results
are byte-identical to the pooled path's.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..core.results import SimulationResult
from .cellspec import CellSpec, simulate_cell


def simulate_batch(
    specs: Sequence[CellSpec],
    on_result: Optional[Callable[[int, SimulationResult], None]] = None,
) -> List[SimulationResult]:
    """Simulate every spec in-process, in submission order.

    ``on_result`` is invoked with ``(index, result)`` as each cell
    finishes, matching the engine's streaming-cache contract.
    """
    results = []
    for index, spec in enumerate(specs):
        result = simulate_cell(spec)
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results
