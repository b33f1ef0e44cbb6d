"""Extension: encoding trade-off study — Flip-N-Write [7] vs DIN-style.

For each workload's write stream we encode every line write three ways and
measure the two quantities the encoders trade against each other:

* cells written per line write (wear / write energy — FNW's objective),
* word-line-vulnerable patterns created (disturbance — DIN's objective).

Expected shape: FNW minimises cells written; the disturbance-aware encoder
accepts slightly more programming to cut vulnerable patterns; raw encoding
is worst on vulnerability and matches FNW-raw on cells by definition.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import LINE_BITS, LINE_WORDS
from ..pcm import line as L
from ..pcm.din import DINEncoder
from ..pcm.flip_n_write import FlipNWriteEncoder
from ..traces.profiles import profile
from .common import ExperimentResult, trace_length

DEFAULT_WORKLOADS = ("gemsFDTD", "lbm", "mcf", "stream")


def _write_stream(bench_name: str, writes: int, rng: np.random.Generator):
    """Synth the same (physical, data) write pairs the simulator would see."""
    bench = profile(bench_name)
    physical = int.from_bytes(
        rng.integers(0, 1 << 64, size=LINE_WORDS, dtype=np.uint64).tobytes(),
        "little",
    )
    for _ in range(writes):
        data = physical ^ L.draw_mask(rng, LINE_BITS, bench.flip_fraction)
        yield physical, data
        physical = data


def run_experiment(
    length: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    writes = trace_length() if length is None else length
    result = ExperimentResult(
        title="Extension: encoder trade-off (per line write)",
        headers=[
            "workload",
            "raw cells",
            "FNW cells",
            "DIN cells",
            "raw vulnerable",
            "FNW vulnerable",
            "DIN vulnerable",
        ],
    )
    din = DINEncoder()
    fnw = FlipNWriteEncoder()
    rng = np.random.default_rng(7)
    totals = np.zeros(6)
    names = workloads or DEFAULT_WORKLOADS
    for bench in names:
        sums = np.zeros(6)
        count = 0
        for physical, data in _write_stream(bench, writes, rng):
            f = fnw.encode(physical, data)
            stored, _ = din.encode_stored_int(physical, data)
            sums += (
                f.cells_written_raw,
                f.cells_written_encoded,
                (physical ^ stored).bit_count(),
                din.vulnerable_pairs(physical, data),
                f.vulnerable_encoded,
                din.vulnerable_pairs(physical, stored),
            )
            count += 1
        sums /= max(count, 1)
        result.rows.append([bench] + [float(x) for x in sums])
        totals += sums
    totals /= len(names)
    result.rows.append(["mean"] + [float(x) for x in totals])
    result.metrics.update(
        raw_cells=float(totals[0]),
        fnw_cells=float(totals[1]),
        din_cells=float(totals[2]),
        raw_vulnerable=float(totals[3]),
        fnw_vulnerable=float(totals[4]),
        din_vulnerable=float(totals[5]),
    )
    result.notes.append(
        "FNW optimises cells written [7]; the DIN-style encoder trades a "
        "few extra cells for fewer disturbance-vulnerable patterns [10]"
    )
    return result
