"""Trace serialisation: save/load main-memory traces.

Two formats:

* **binary** (``.npz``): the three :class:`~repro.traces.record.TraceArray`
  columns (``is_write``, ``address``, ``gap``), compact and fast — the
  format to use for sweep campaigns so trace generation is paid once.
* **text** (``.trace``): one ``R|W <hex-address> <gap>`` record per line,
  the classic simulator interchange format, handy for diffing and for
  importing traces produced by external tools (e.g. a real PIN run).

Both formats round-trip exactly.  A loaded trace passes the engine's own
reference check; every load error is a :class:`TraceError` naming the file.
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from ..config import LINE_BYTES
from ..errors import TraceError
from .record import TraceArray, check_trace

PathLike = Union[str, Path]

_FIELDS = ("is_write", "address", "gap")


def _loaded(path: Path, is_write, address, gap) -> TraceArray:
    """The columns as a checked ``bool``/``int64`` :class:`TraceArray`."""
    try:
        trace = TraceArray(
            np.asarray(is_write, dtype=bool),
            np.asarray(address, dtype=np.int64),
            np.asarray(gap, dtype=np.int64),
        )
        check_trace(trace)
    except (TraceError, TypeError, ValueError, OverflowError) as exc:
        raise TraceError(f"{path}: {exc}") from None
    return trace


def save_npz(trace: TraceArray, path: PathLike) -> None:
    """Save a trace's columns as a compressed numpy archive."""
    np.savez_compressed(
        Path(path), is_write=trace.is_write, address=trace.address, gap=trace.gap
    )


def load_npz(path: PathLike) -> TraceArray:
    """Load a trace saved by :func:`save_npz`."""
    path = Path(path)
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with data:
            for field in _FIELDS:
                if field not in data:
                    raise TraceError(f"{path}: missing field {field!r}")
            columns = [data[field] for field in _FIELDS]
    except (ValueError, NotImplementedError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise TraceError(f"{path}: not an .npz trace archive ({exc})") from None
    return _loaded(path, *columns)


def save_text(trace: TraceArray, path: PathLike) -> None:
    """Save a trace in the line-oriented text format."""
    with Path(path).open("w") as fh:
        fh.write("# SD-PCM trace: <R|W> <hex line address> <instruction gap>\n")
        fh.writelines(
            f"{'W' if w else 'R'} {a:#x} {g}\n"
            for w, a, g in zip(
                trace.is_write.tolist(), trace.address.tolist(), trace.gap.tolist()
            )
        )


def load_text(path: PathLike) -> TraceArray:
    """Load a text trace; tolerant of comments and blank lines.

    Byte-granular addresses (as external tools may write) are aligned
    down to their 64 B line.
    """
    path = Path(path)
    is_write, address, gap = [], [], []
    try:
        with path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3 or parts[0] not in ("R", "W"):
                    raise TraceError(
                        f"{path}:{lineno}: malformed record {line!r}")
                try:
                    byte_address, g = int(parts[1], 0), int(parts[2])
                except ValueError as exc:
                    raise TraceError(f"{path}:{lineno}: {exc}") from None
                is_write.append(parts[0] == "W")
                address.append(byte_address - byte_address % LINE_BYTES)
                gap.append(g)
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: not a text trace ({exc})") from None
    return _loaded(path, is_write, address, gap)


def save(trace: TraceArray, path: PathLike) -> None:
    """Save by extension: ``.npz`` binary, anything else text."""
    if str(path).endswith(".npz"):
        save_npz(trace, path)
    else:
        save_text(trace, path)


def load(path: PathLike) -> TraceArray:
    """Load by extension: ``.npz`` binary, anything else text."""
    if str(path).endswith(".npz"):
        return load_npz(path)
    return load_text(path)
