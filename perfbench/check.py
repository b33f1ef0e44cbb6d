"""Output checks: digests against the committed reference, and invariants.

A cell digest covers what a simulation result says about the modelled
system: cycles, instructions, per-core CPI, and the ``Counters`` fields
that existed when the reference was made (their names are stored in the
reference, so a counter added later does not break old digests).  An
experiment is checked by the sha256 of its exported JSON and by the
sorted multiset of the digests of every cell it requested.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Iterable, List, Optional


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cell_digest(result, counter_fields: Iterable[str]) -> str:
    counters = dataclasses.asdict(result.counters)
    payload = [
        result.cycles,
        result.instructions,
        [repr(cpi) for cpi in result.per_core_cpi],
        {name: counters.get(name) for name in counter_fields},
    ]
    return sha256_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def cells_digest(digests: Iterable[str]) -> str:
    """Order-free digest of a multiset of cell digests."""
    return sha256_text("\n".join(sorted(digests)))


def counter_fields() -> List[str]:
    from repro.stats.counters import Counters

    return [field.name for field in dataclasses.fields(Counters)]


def cell_key(bench: str, scheme: str, length: int, seed: int) -> str:
    return f"{bench}|{scheme}|{length}|{seed}"


def invariant_violations(result, instructions: Optional[int] = None) -> List[str]:
    """Accounting identities every cell satisfies, whatever its seed."""
    c = result.counters
    problems = []
    if result.cycles <= 0:
        problems.append("non-positive cycles")
    if not result.per_core_cpi or min(result.per_core_cpi) <= 0:
        problems.append("non-positive per-core CPI")
    if instructions is not None and result.instructions != instructions:
        problems.append(
            f"{result.instructions} instructions, trace has {instructions}"
        )
    sources = c.preread_hits + c.preread_forwards + c.preread_stale + c.pre_write_reads
    if sources != c.verifications:
        problems.append("pre-read sources differ from verifications")
    if c.preread_hits > c.prereads_issued:
        problems.append("more pre-read hits than pre-reads issued")
    if c.ecp_absorbed_errors > c.bitline_errors + c.partial_write_errors:
        problems.append("ECP absorbed more errors than were injected")
    return problems


def source_digest(src: Path) -> str:
    """Short digest of the simulator's sources (stamped on every result)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]
