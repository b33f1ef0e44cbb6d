"""The frames demand faults hand out are pinned to a committed digest.

Three page tables, (1:1), (2:3) and (1:2), share one
:class:`NMAllocManager` and fault pages in a seeded interleaving long
enough that each ratio pulls more than one 64 MB block.  Every frame
and tag a translation returns feeds the digest, so an allocator change
that hands out any other frame, in any order, fails here even when the
frames stay valid and disjoint.
"""

from __future__ import annotations

import hashlib
import random

from repro.alloc.nm_alloc import NMAllocManager
from repro.alloc.page_table import PageTable
from repro.alloc.strips import PAGES_PER_BLOCK

TAGS = ((1, 1), (2, 3), (1, 2))
#: Translations in the script: about 18k faults per table, so each ratio
#: crosses into a second block.
TRANSLATIONS = 75_000

#: sha256 of the script's (table, vpage, frame, tag) records.
DIGEST = "889da5a576b2d8710b92a7bd9653aa682203808344ad75edba51c90381b9f178"
#: The first frame each table was handed, and the first ten overall.
FIRST_FRAMES = (
    [16384, 32768, 0],
    [0, 1, 16384, 32768, 16385, 32769, 16386, 2, 16387, 32770],
)


def replay():
    manager = NMAllocManager(total_frames=8 * PAGES_PER_BLOCK)
    tables = [PageTable(tag, manager.allocate_frame) for tag in TAGS]
    rng = random.Random(34)
    records = []
    for _ in range(TRANSLATIONS):
        which = rng.randrange(len(tables))
        # Fresh pages and revisits (a revisit must not fault again).
        vpage = rng.randrange(40_000)
        frame = tables[which].translate(vpage)
        records.append((which, vpage, frame, tables[which].nm_tag))
    return manager, tables, records


def test_frame_sequence_matches_the_committed_digest():
    manager, tables, records = replay()
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    firsts = [next(r[2] for r in records if r[0] == i) for i in range(3)]
    assert (firsts, [r[2] for r in records[:10]]) == FIRST_FRAMES
    assert digest == DIGEST
    manager.backing.check_invariants()


def test_every_ratio_crossed_a_block():
    _, tables, records = replay()
    for i, table in enumerate(tables):
        frames = {r[2] for r in records if r[0] == i}
        assert len(frames) == table.faults
        assert len({f // PAGES_PER_BLOCK for f in frames}) >= 2, TAGS[i]
