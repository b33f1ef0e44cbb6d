"""Process-wide deterministic Monte Carlo state plane.

Two kinds of per-cell state are pure functions of their key — every
cell (and every retry of a cell) regenerates identical values from the
same seeded :func:`numpy.random.default_rng` recipe:

* **pristine lines** — a line's initial stored contents.  Line ``l`` of
  row ``(bank, row)`` is words ``8 * l`` to ``8 * l + 7`` of the 64-line
  image ``default_rng((seed, bank, row))`` draws for the row.
  :meth:`StatePlane.pristine_row` opens a row's stream (the backend's
  ``row_stream``), and the array draws from it each line it touches,
  once, on first touch.  No row image is kept: the compiled backend
  packs the row's key once, then seeds the row's ``PCG64`` and jumps it
  ``8 * l`` outputs ahead per line, and the pure-Python reference
  slices a bounded memo of recent rows
  (:func:`repro.pcm.line.seeded_line`);
* **weak-cell masks** — a line's fixed set of disturbance-prone cells,
  keyed ``(fraction, bank, row, line)`` (read by the victim pass of
  :meth:`repro.core.vnc.VnCExecutor.execute`) and pooled here.

Generation goes through the active kernel backend's ``seeded_line`` /
``seeded_mask``: the compiled backend runs numpy's ``SeedSequence`` ->
``PCG64`` recipe natively, bit for bit, and the Python backend calls
numpy itself (the reference).  Because the recipes are deterministic, a
*process-level* mask pool is byte-identity-safe by construction: a
pooled mask and a freshly generated one are the same int.  Cells within
a batch, across batches, and across experiments then share the masks —
only the first touch of a key in a process pays generation.

Consumers always go through the plane (:meth:`StatePlane.pristine_row`,
:meth:`StatePlane.weak_mask`); there is no uncached mode.

The mask pool is FIFO-capped (262144 small ints) so a huge sweep cannot
grow without bound.  Eviction only costs a future regeneration, never
correctness.  Pool workers inherit the parent's pool over ``fork`` and
extend their own copies; nothing is shared back, which is fine — the
content is deterministic either way.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Tuple

from ..config import LINE_BITS
from . import kernels
from . import line as L

#: FIFO cap (entries).  A full sweep's working set fits well under it.
MASK_POOL_CAP = 262144

#: (fraction, bank, row, line): a flat tuple of atoms, which the cyclic
#: collector stops tracking after one pass (a nested tuple would keep
#: every pooled key tracked).
MaskKey = Tuple[float, int, int, int]


def _generate_weak_mask(fraction: float, key: Tuple[int, int, int]) -> int:
    """Cells whose ``default_rng((0x5D9C, *key))`` draw is below ``fraction``."""
    if fraction >= 1.0:
        return L.MASK_ALL
    return kernels.active().seeded_mask((0x5D9C, *key), LINE_BITS, fraction)


class StatePlane:
    """Pristine row streams and a FIFO-capped weak-mask pool."""

    #: No row is pooled, so none is ever served from a pool: every opened
    #: row counts as a miss (``perfbench``'s traced run reads both).
    row_hits = 0

    def __init__(self) -> None:
        self._masks: Dict[MaskKey, int] = {}
        #: The pool's keys, oldest first, from its first eviction on:
        #: finding a plain dict's oldest key walks every slot deleted
        #: before it, and an ordered dict costs memory below the cap.
        self._mask_order: Deque[MaskKey] = deque()
        self.rows_opened = 0
        self.mask_hits = 0
        self.mask_misses = 0
        self.evictions = 0

    @property
    def row_misses(self) -> int:
        return self.rows_opened

    def pristine_row(self, seed: int, bank: int, row: int) -> Callable[[int], int]:
        """Open one row's pristine stream: a callable taking a line index
        ``l`` (``0 <= l < 64``) to that line's pristine int."""
        self.rows_opened += 1
        return kernels.active().row_stream((seed, bank, row))

    def weak_mask(self, fraction: float, key: Tuple[int, int, int]) -> int:
        """The fixed weak-cell mask of one line coordinate (int domain)."""
        pool_key = (fraction,) + key
        masks = self._masks
        mask = masks.get(pool_key)
        if mask is not None:
            self.mask_hits += 1
            return mask
        self.mask_misses += 1
        mask = _generate_weak_mask(fraction, key)
        if len(masks) >= MASK_POOL_CAP:
            order = self._mask_order
            if not order:
                order.extend(masks)
            del masks[order.popleft()]
            order.append(pool_key)
            self.evictions += 1
        masks[pool_key] = mask
        return mask

    # -- bookkeeping -------------------------------------------------------

    def reset(self) -> None:
        """Drop every pooled mask and zero the counters (test isolation)."""
        self._masks.clear()
        self._mask_order.clear()
        self.rows_opened = 0
        self.mask_hits = 0
        self.mask_misses = 0
        self.evictions = 0

    def summary(self) -> str:
        return (
            f"{self.rows_opened} rows opened, "
            f"weak masks {self.mask_hits} hits / {self.mask_misses} misses, "
            f"{len(self._masks)} pooled, {self.evictions} evictions"
        )


#: The process-wide plane every array / executor draws from.
PLANE = StatePlane()
