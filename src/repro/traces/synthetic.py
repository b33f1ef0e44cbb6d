"""Synthetic main-memory trace generation.

Stands in for the paper's PIN-captured traces (Section 5.2).  The generator
produces a reference stream with the benchmark's measured RPKI/WPKI and a
two-mode address process:

* **stream mode** (probability ``seq_fraction``): the next reference
  continues the current sequential run, advancing one 64 B line; runs
  restart from a fresh page when they cross a page boundary with a small
  probability, approximating unit-stride array sweeps.
* **pointer mode**: a fresh (page, line) is drawn with Zipf-distributed page
  popularity over the working set, approximating irregular heaps.

Instruction gaps between references are geometric with mean
``1000 / (RPKI + WPKI)``, matching the benchmark's access intensity.

Generation is deterministic per (profile, seed, core index).
"""

from __future__ import annotations

import zlib
from typing import Optional, Tuple

import numpy as np

from ..config import LINES_PER_PAGE, PAGE_BYTES
from ..errors import TraceError
from .profiles import BenchmarkProfile, profile
from .record import TraceArray


def _zipf_page_sampler(
    pages: int, s: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-build a cumulative Zipf distribution over page *ranks*.

    Returns the rank CDF together with the rank→page permutation: ranks
    are shuffled into page numbers so that popular pages are spread
    across the address space (and hence across banks), as real
    allocators do [17].
    """
    ranks = np.arange(1, pages + 1, dtype=np.float64)
    weights = ranks ** (-s) if s > 0 else np.ones(pages)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    permutation = rng.permutation(pages)
    return cdf, permutation


class SyntheticTraceGenerator:
    """Deterministic per-core trace generator for one benchmark profile."""

    def __init__(
        self,
        bench: BenchmarkProfile,
        seed: int = 0,
        core: int = 0,
        base_page: int = 0,
    ):
        self.profile = bench
        self.seed = seed
        self.core = core
        #: First virtual page of this core's working set (cores run separate
        #: copies in different address spaces; the engine maps each core's
        #: virtual pages independently anyway, but a base keeps streams
        #: distinguishable in merged dumps).
        self.base_page = base_page

    def generate(self, length: int) -> TraceArray:
        """Produce a trace of ``length`` references.

        Fully vectorized: the two-mode address walk is resolved with a
        ``maximum.accumulate`` over fresh-draw positions instead of a
        per-record Python loop, consuming the *same* RNG draws in the
        same order as the original scalar implementation (the loop never
        touched the generator), so traces are byte-identical.
        """
        if length < 0:
            raise TraceError("length must be >= 0")
        bench = self.profile
        # zlib.crc32 rather than hash(): Python string hashing is salted
        # per process, which would make traces irreproducible across runs.
        name_tag = zlib.crc32(bench.name.encode()) & 0xFFFF
        rng = np.random.default_rng((self.seed, self.core, name_tag))
        cdf, perm = _zipf_page_sampler(bench.working_set_pages, bench.zipf_s, rng)

        is_write = rng.random(length) < bench.write_fraction
        # Geometric gaps with the profile's mean; numpy's geometric counts
        # trials >= 1, so subtract one to allow back-to-back references.
        p = min(1.0, 1.0 / max(bench.mean_gap, 1.0))
        gaps = rng.geometric(p, size=length).astype(np.int64) - 1
        streaming = rng.random(length) < bench.seq_fraction
        fresh_draws = rng.random(length)
        # Line-within-page popularity is itself skewed (applications hammer
        # the same fields/nodes): a Zipf rank over the 64 lines, rotated
        # per page so hot lines do not all share one bank column.
        line_cdf, line_perm = _zipf_page_sampler(LINES_PER_PAGE, 0.9, rng)
        line_draws = rng.random(length)

        if length == 0:
            empty = np.zeros(0, dtype=np.int64)
            return TraceArray(np.zeros(0, dtype=bool), empty, empty.copy())

        # Fresh (page, line) for every position; streaming positions get
        # theirs from the most recent fresh draw plus the run offset.
        pages = perm[np.searchsorted(cdf, fresh_draws)].astype(np.int64)
        ranks = line_perm[np.searchsorted(line_cdf, line_draws)].astype(np.int64)
        fresh_line = (ranks + pages * 7) % LINES_PER_PAGE
        # Global line index G = page * 64 + line; a streaming step is G + 1
        # (mod working set), which folds the line-wrap page advance in.
        fresh_global = pages * LINES_PER_PAGE + fresh_line
        # The first reference takes its line rank unrotated (no run yet).
        fresh_global[0] = pages[0] * LINES_PER_PAGE + ranks[0]

        fresh = ~streaming
        fresh[0] = True
        idx = np.arange(length, dtype=np.int64)
        last_fresh = np.maximum.accumulate(np.where(fresh, idx, 0))
        total_lines = bench.working_set_pages * LINES_PER_PAGE
        global_line = (fresh_global[last_fresh] + (idx - last_fresh)) % total_lines

        # PAGE_BYTES == LINES_PER_PAGE * LINE_BYTES, so byte address is
        # base offset + global line index * line size.
        addresses = self.base_page * PAGE_BYTES + global_line * (
            PAGE_BYTES // LINES_PER_PAGE
        )
        return TraceArray(is_write, addresses, gaps)


def generate_trace(
    benchmark: str,
    length: int,
    seed: int = 0,
    core: int = 0,
    base_page: Optional[int] = None,
) -> TraceArray:
    """Convenience wrapper: trace for a named Table 3 benchmark."""
    bench = profile(benchmark)
    if base_page is None:
        base_page = core * bench.working_set_pages
    return SyntheticTraceGenerator(bench, seed, core, base_page).generate(length)
