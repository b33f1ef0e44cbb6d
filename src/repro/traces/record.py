"""Trace records: the unit of work the simulation engine replays.

A trace is the stream of *main-memory* references of one core, i.e. what a
PIN tool captures after cache filtering (Section 5.2).  Each record carries:

* ``is_write`` — read or write-back,
* ``address`` — 64-byte-aligned virtual byte address,
* ``gap`` — the number of non-memory instructions executed by the in-order
  core since the previous record (these retire at CPI = 1).

Write payloads are not embedded: the engine synthesises each write's new
data from the line's current contents and the workload's bit-flip density
(see :class:`~repro.traces.profiles.BenchmarkProfile.flip_fraction`), which
is the only payload property the evaluation depends on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..config import LINE_BYTES
from ..errors import TraceError


def _problem(address: int, gap: int) -> Optional[str]:
    """Why a reference is invalid (checks in a fixed order), or None."""
    if address < 0:
        return f"negative address {address:#x}"
    if address % LINE_BYTES:
        return f"address {address:#x} not 64 B aligned"
    if gap < 0:
        return f"negative instruction gap {gap}"
    return None


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One main-memory reference of one core."""

    is_write: bool
    address: int
    gap: int

    def __post_init__(self) -> None:
        problem = _problem(self.address, self.gap)
        if problem is not None:
            raise TraceError(problem)

    @property
    def page(self) -> int:
        """The 4 KB virtual page number of this reference."""
        return self.address >> 12


class TraceArray(Sequence):
    """A trace backed by columnar numpy arrays with a lazy record view.

    Generation produces the three columns in one vectorized pass (see
    :mod:`repro.traces.synthetic`); :class:`TraceRecord` objects are only
    materialised when an element is accessed, so every list-style
    consumer (indexing, slicing, ``zip``, equality, iteration) works
    unchanged while synthesis stays free of per-record Python loops.  The
    engine reads the columns directly (:func:`trace_columns`).  Column
    layout matches the ``.npz`` trace file format (``is_write`` bool,
    ``address``/``gap`` int64).
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

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TraceArray(
                self.is_write[index], self.address[index], self.gap[index]
            )
        return TraceRecord(
            is_write=bool(self.is_write[index]),
            address=int(self.address[index]),
            gap=int(self.gap[index]),
        )

    def __iter__(self):
        # One bulk conversion instead of per-element numpy scalar boxing.
        for w, a, g in zip(
            self.is_write.tolist(), self.address.tolist(), self.gap.tolist()
        ):
            yield TraceRecord(is_write=w, address=a, gap=g)

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceArray):
            return (
                np.array_equal(self.is_write, other.is_write)
                and np.array_equal(self.address, other.address)
                and np.array_equal(self.gap, other.gap)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # mutable columns; records themselves stay hashable

    def __repr__(self) -> str:
        return f"TraceArray(length={len(self)})"


def trace_columns(
    trace: Sequence[TraceRecord],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(is_write, address, gap)`` numpy columns of any trace, checked.

    A :class:`TraceArray` hands over its own columns; any other sequence
    of records is gathered once.  One vectorised pass applies
    :class:`TraceRecord`'s checks to every reference and raises the
    :class:`TraceError` a record would raise for the first bad one.
    """
    if isinstance(trace, TraceArray):
        is_write, address, gap = trace.is_write, trace.address, trace.gap
    else:
        count = len(trace)
        is_write = np.fromiter((r.is_write for r in trace), bool, count)
        address = np.fromiter((r.address for r in trace), np.int64, count)
        gap = np.fromiter((r.gap for r in trace), np.int64, count)
    bad = (address < 0) | (address % LINE_BYTES != 0) | (gap < 0)
    if bad.any():
        first = int(bad.argmax())
        raise TraceError(_problem(int(address[first]), int(gap[first])))
    return is_write, address, gap
