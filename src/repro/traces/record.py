"""Traces: the unit of work the simulation engine replays.

A trace is the stream of *main-memory* references of one core, i.e. what a
PIN tool captures after cache filtering (Section 5.2).  Each reference has:

* ``is_write`` — read or write-back,
* ``address`` — 64-byte-aligned virtual byte address,
* ``gap`` — the number of non-memory instructions executed by the in-order
  core since the previous reference (these retire at CPI = 1).

Write payloads are not embedded: the engine synthesises each write's new
data from the line's current contents and the workload's bit-flip density
(see :class:`~repro.traces.profiles.BenchmarkProfile.flip_fraction`), which
is the only payload property the evaluation depends on.
"""

from __future__ import annotations

import numpy as np

from ..config import LINE_BYTES
from ..errors import TraceError


class TraceArray:
    """One core's trace as three numpy columns of equal length.

    Synthesis produces the columns in one vectorized pass (see
    :mod:`repro.traces.synthetic`), the trace plane shares them between
    processes, and the engine replays them.  Column layout matches the
    ``.npz`` trace file format (``is_write`` bool, ``address``/``gap``
    int64).
    """

    __slots__ = ("is_write", "address", "gap")

    def __init__(
        self, is_write: np.ndarray, address: np.ndarray, gap: np.ndarray
    ):
        if not (len(is_write) == len(address) == len(gap)):
            raise TraceError("trace column lengths differ")
        self.is_write = is_write
        self.address = address
        self.gap = gap

    def __len__(self) -> int:
        return len(self.gap)

    def __repr__(self) -> str:
        return f"TraceArray(length={len(self)})"


def check_trace(trace: TraceArray) -> None:
    """Raise :class:`TraceError` naming the first invalid reference, if any.

    One vectorised pass over the columns; a reference is invalid if its
    address is negative or not 64 B aligned, or its gap is negative.
    """
    address, gap = trace.address, trace.gap
    bad = (address < 0) | (address % LINE_BYTES != 0) | (gap < 0)
    if not bad.any():
        return
    first = int(bad.argmax())
    address, gap = int(address[first]), int(gap[first])
    if address < 0:
        raise TraceError(f"negative address {address:#x}")
    if address % LINE_BYTES:
        raise TraceError(f"address {address:#x} not 64 B aligned")
    raise TraceError(f"negative instruction gap {gap}")
