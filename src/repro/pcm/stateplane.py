"""Process-wide deterministic Monte Carlo state plane.

Two pools of per-cell state are pure functions of their key — every
cell (and every retry of a cell) regenerates identical bytes from the
same seeded :func:`numpy.random.default_rng` recipe:

* **pristine row images** — a row's initial stored contents, keyed
  ``(seed, bank, row)`` and pooled as one immutable 4 KB ``bytes``
  object (64 lines x 64 little-endian bytes).  Every
  :class:`~repro.pcm.array.PCMArray` with that key shares the object and
  never copies it: an array turns a line into an int on first touch;
* **weak-cell masks** — a line's fixed set of disturbance-prone cells,
  keyed ``(fraction, bank, row, line)`` (see
  :meth:`repro.core.vnc.VnCExecutor._expose`).

Generation goes through the active kernel backend's ``seeded_words`` /
``seeded_mask``: the compiled backend runs numpy's ``SeedSequence`` ->
``PCG64`` recipe natively, bit for bit, and the Python backend calls
numpy itself (the reference).  Because the recipes are deterministic, a
*process-level* pool is byte-identity-safe by construction: a pooled
value and a freshly generated one are the same bytes/int.  Cells within
a batch, across batches, and across experiments then share the state —
only the first touch of a key in a process pays generation.

Consumers always go through the plane (:meth:`StatePlane.pristine_row`,
:meth:`StatePlane.weak_mask`); there is no uncached mode.

Pools are FIFO-capped so a huge sweep cannot grow without bound: row
images are 4 KB each (cap 16384 ≈ 64 MB), weak masks are small ints
(cap 262144).  Eviction only costs a future regeneration, never
correctness.  Pool workers inherit the parent's pools over ``fork`` and
extend their own copies; nothing is shared back, which is fine — the
content is deterministic either way.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from ..config import LINE_BITS, LINE_WORDS, LINES_PER_PAGE
from . import kernels
from . import line as L

#: FIFO caps (entries).  A full sweep's working set fits well under both.
ROW_POOL_CAP = 16384
MASK_POOL_CAP = 262144

#: uint64 words in one row image.
ROW_WORDS = LINES_PER_PAGE * LINE_WORDS

RowKey = Tuple[int, int, int]  # (array seed, bank, row)
#: (fraction, bank, row, line): a flat tuple of atoms, which the cyclic
#: collector stops tracking after one pass (a nested tuple would keep
#: every pooled key tracked).
MaskKey = Tuple[float, int, int, int]


def _generate_row(seed: int, bank: int, row: int) -> bytes:
    """A row's pristine image: ``default_rng((seed, bank, row))`` words."""
    return kernels.active().seeded_words((seed, bank, row), ROW_WORDS)


def _generate_weak_mask(fraction: float, key: Tuple[int, int, int]) -> int:
    """Cells whose ``default_rng((0x5D9C, *key))`` draw is below ``fraction``."""
    if fraction >= 1.0:
        return L.MASK_ALL
    return kernels.active().seeded_mask((0x5D9C, *key), LINE_BITS, fraction)


class StatePlane:
    """FIFO-capped pools of deterministic per-key Monte Carlo state."""

    def __init__(self) -> None:
        self._rows: Dict[RowKey, bytes] = {}
        self._masks: Dict[MaskKey, int] = {}
        #: Each pool's keys, oldest first, from its first eviction on:
        #: finding a plain dict's oldest key walks every slot deleted
        #: before it, and an ordered dict costs memory below the cap.
        self._row_order: Deque[RowKey] = deque()
        self._mask_order: Deque[MaskKey] = deque()
        self.row_hits = 0
        self.row_misses = 0
        self.mask_hits = 0
        self.mask_misses = 0
        self.evictions = 0

    # -- pools -------------------------------------------------------------

    def pristine_row(self, seed: int, bank: int, row: int) -> bytes:
        """The immutable pristine stored image of one row (4 KB).

        Line ``l`` is bytes ``64 * l`` to ``64 * l + 64``, little-endian.
        """
        key = (seed, bank, row)
        stored = self._rows.get(key)
        if stored is not None:
            self.row_hits += 1
            return stored
        self.row_misses += 1
        stored = _generate_row(seed, bank, row)
        self._admit(self._rows, self._row_order, ROW_POOL_CAP, key, stored)
        return stored

    def weak_mask(self, fraction: float, key: Tuple[int, int, int]) -> int:
        """The fixed weak-cell mask of one line coordinate (int domain)."""
        pool_key = (fraction,) + key
        mask = self._masks.get(pool_key)
        if mask is not None:
            self.mask_hits += 1
            return mask
        self.mask_misses += 1
        mask = _generate_weak_mask(fraction, key)
        self._admit(self._masks, self._mask_order, MASK_POOL_CAP, pool_key, mask)
        return mask

    def _admit(self, pool: dict, order: deque, cap: int, key, value) -> None:
        """Pool a new value, evicting the oldest one when the pool is full."""
        if len(pool) >= cap:
            if not order:
                order.extend(pool)
            del pool[order.popleft()]
            order.append(key)
            self.evictions += 1
        pool[key] = value

    # -- bookkeeping -------------------------------------------------------

    @property
    def entries(self) -> int:
        return len(self._rows) + len(self._masks)

    def reset(self) -> None:
        """Drop every pooled value and zero the counters (test isolation)."""
        self._rows.clear()
        self._masks.clear()
        self._row_order.clear()
        self._mask_order.clear()
        self.reset_counters()

    def reset_counters(self) -> None:
        self.row_hits = 0
        self.row_misses = 0
        self.mask_hits = 0
        self.mask_misses = 0
        self.evictions = 0

    def summary(self) -> str:
        return (
            f"{self.entries} entries, "
            f"rows {self.row_hits}/{self.row_hits + self.row_misses} hits, "
            f"masks {self.mask_hits}/{self.mask_hits + self.mask_misses} hits, "
            f"{self.evictions} evictions"
        )


#: The process-wide plane every array / executor draws from.
PLANE = StatePlane()
