"""SLC PCM cell semantics.

A single-level cell stores one bit: the fully crystalline (low resistance)
state is bit ``1``; the fully amorphous (high resistance) state is bit ``0``
(Section 2.1).  Programming to ``0`` is a RESET (melt + quench); programming
to ``1`` is a SET (anneal above crystallisation).

Only a RESET disturbs neighbours, and only neighbours that are *idle* and
*amorphous* (storing ``0``) are vulnerable (Section 2.2.1): heat decay keeps
the neighbour below melt, so a crystalline neighbour cannot be melted, and
SET current is about half of RESET so SET disturbance is negligible [27].
"""

from __future__ import annotations

from enum import IntEnum


class CellFault(IntEnum):
    """Permanent wear-out failure modes of one SLC cell.

    A worn-out cell's heater or GST volume can no longer switch phase, so
    the cell is frozen in whichever state it failed in.  Stuck cells are
    immune to write disturbance (no phase left to change) and must be
    covered by an ECP entry to stay readable.
    """

    #: Frozen amorphous: always reads the high-resistance bit ``0``.
    STUCK_AMORPHOUS = 0
    #: Frozen crystalline: always reads the low-resistance bit ``1``.
    STUCK_CRYSTALLINE = 1

