"""Compiled kernel backend: a C shared library loaded via ctypes.

The C source (``_kernels.c``) has no ``Python.h`` dependency, so the
build is a single ``cc -O2 -shared -fPIC`` invocation — no Python
headers, no setuptools machinery at runtime.  Resolution order:

1. a **prebuilt** library next to this package (``_kernels*.so``,
   dropped by the best-effort ``setup.py`` build step);
2. a **cached build** under ``<cache_dir>/kernels/``, keyed by the
   source hash so stale libraries are never reused;
3. a fresh compile with ``REPRO_KERNEL_CC`` (or the first of
   ``cc``/``gcc``/``clang`` on ``PATH``).

If none loads, construction raises :class:`~.base.BackendUnavailable`
and the engine runs the pure-Python backend instead.

The ctypes veneer passes ``bytes`` objects and pre-computed buffer
addresses instead of numpy pointers: ``ndarray.ctypes.data`` costs
~1.7us per access — more than the native call itself — so the hot
scalar kernels reuse cached output buffers.  Kernels where a single
numpy SIMD call is already optimal (``popcount_rows``, the flag-expand
XOR of ``decode_int``) stay on the numpy implementations; C is used
where per-bit Python loops or per-byte LUT walks dominate.

**Crash containment**: RNG draws always happen in Python *before* the
native call, so when a compiled kernel raises at runtime the backend
retires itself (one warning), recomputes the result from the
already-drawn keep flags with the pure-Python scatter — byte-identical,
stream-identical — and delegates every later call to the Python
backend.  A compiled-kernel failure can therefore never corrupt a
result or desynchronise an RNG stream.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import warnings
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ... import envconfig
from ...config import LINE_BITS, LINE_BYTES, LINE_WORDS
from .. import din as D
from .. import line as L
from .base import BackendUnavailable, KernelBackend
from .python_backend import PythonBackend

#: Expected ``sd_abi_version()`` of a loadable library; a library with
#: another entry-point set fails the probe and is rebuilt from source.
_ABI_VERSION = 3

_SOURCE = Path(__file__).with_name("_kernels.c")


def _find_compiler() -> Optional[str]:
    """The C compiler to use: ``REPRO_KERNEL_CC`` or the first on PATH."""
    override = envconfig.kernel_cc()
    if override is not None:
        return override
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _prebuilt_library() -> Optional[Path]:
    """A prebuilt shared library shipped next to the package, if any."""
    here = Path(__file__).parent
    for pattern in ("_kernels*.so", "_kernels*.dylib"):
        for cand in sorted(here.glob(pattern)):
            return cand
    return None


def _build_library() -> Path:
    """Compile ``_kernels.c`` into the cache dir (content-addressed)."""
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:12]
    out_dir = envconfig.cache_dir() / "kernels"
    out = out_dir / f"sd_kernels_{digest}.so"
    if out.exists():
        return out
    cc = _find_compiler()
    if cc is None:
        raise BackendUnavailable(
            "no C compiler found (set REPRO_KERNEL_CC or install cc/gcc/clang)"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f"{out.stem}.tmp{os.getpid()}.so")
    cmd = [cc, "-O2", "-shared", "-fPIC", "-o", str(tmp), str(_SOURCE)]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BackendUnavailable(f"kernel compile failed to run: {exc}") from None
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        stderr = proc.stderr.decode(errors="replace").strip()
        raise BackendUnavailable(
            f"kernel compile failed ({cc} exit {proc.returncode}): {stderr[:500]}"
        )
    os.replace(tmp, out)  # atomic: concurrent builders converge on one file
    return out


def _load_library(path: Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise BackendUnavailable(f"cannot load kernel library {path}: {exc}") from None
    try:
        lib.sd_abi_version.restype = ctypes.c_int
        abi = int(lib.sd_abi_version())
    except AttributeError:
        raise BackendUnavailable(f"{path} is not a kernel library") from None
    if abi != _ABI_VERSION:
        raise BackendUnavailable(
            f"kernel library {path} has ABI {abi}, expected {_ABI_VERSION}"
        )
    _declare(lib)
    return lib


def _declare(lib: ctypes.CDLL) -> None:
    """Bind argtypes/restypes; pointers travel as ``c_void_p`` (bytes or int)."""
    p = ctypes.c_void_p
    i = ctypes.c_int
    lib.sd_apply_keep_rows.argtypes = [p, i, i, p, p]
    lib.sd_apply_keep_rows.restype = i
    lib.sd_din_encode.argtypes = [p, p, p, p, i, i, p, p]
    lib.sd_din_encode.restype = None
    lib.sd_din_decode.argtypes = [p, p, i, i, p]
    lib.sd_din_decode.restype = None
    lib.sd_pack_bits.argtypes = [p, i, p]
    lib.sd_pack_bits.restype = None
    lib.sd_pack_less_than.argtypes = [p, i, ctypes.c_double, p]
    lib.sd_pack_less_than.restype = None
    lib.sd_bit_positions.argtypes = [p, i, p]
    lib.sd_bit_positions.restype = i


class _COps:
    """bytes-in/bytes-out veneer over the ctypes library.

    Single-line calls write into cached buffers whose addresses are
    computed once; batch calls allocate per invocation (amortised over
    the rows).
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        # Hold the LUTs (and their addresses) so the buffers outlive
        # every native call.
        self._stored_tab, self._invert_tab = D.din_tables()
        self._stored_ptr = self._stored_tab.ctypes.data
        self._invert_ptr = self._invert_tab.ctypes.data
        self._line_buf = ctypes.create_string_buffer(LINE_BYTES)
        self._line_addr = ctypes.addressof(self._line_buf)
        self._flag_buf = ctypes.create_string_buffer(8)
        self._flag_addr = ctypes.addressof(self._flag_buf)
        self._pos_buf = ctypes.create_string_buffer(LINE_BITS * 4)
        self._pos_addr = ctypes.addressof(self._pos_buf)
        self._pos_view = np.frombuffer(self._pos_buf, np.int32)

    def apply_keep(self, cand: bytes, keep: bytes, n_rows: int) -> bytes:
        if n_rows == 1:
            self._lib.sd_apply_keep_rows(
                cand, 1, LINE_BYTES, keep, self._line_addr
            )
            return self._line_buf.raw
        out = ctypes.create_string_buffer(n_rows * LINE_BYTES)
        self._lib.sd_apply_keep_rows(
            cand, n_rows, LINE_BYTES, keep, ctypes.addressof(out)
        )
        return out.raw

    def din_encode(self, old: bytes, raw: bytes, n_rows: int) -> Tuple[bytes, bytes]:
        if n_rows == 1:
            ctypes.memset(self._flag_addr, 0, 8)
            self._lib.sd_din_encode(
                old, raw, self._stored_ptr, self._invert_ptr,
                1, LINE_BYTES, self._line_addr, self._flag_addr,
            )
            return self._line_buf.raw, self._flag_buf.raw
        stored = ctypes.create_string_buffer(n_rows * LINE_BYTES)
        flags = ctypes.create_string_buffer(n_rows * 8)
        self._lib.sd_din_encode(
            old, raw, self._stored_ptr, self._invert_ptr,
            n_rows, LINE_BYTES, ctypes.addressof(stored), ctypes.addressof(flags),
        )
        return stored.raw, flags.raw

    def din_decode(self, stored: bytes, flags: bytes, n_rows: int) -> bytes:
        if n_rows == 1:
            self._lib.sd_din_decode(
                stored, flags, 1, LINE_BYTES, self._line_addr
            )
            return self._line_buf.raw
        out = ctypes.create_string_buffer(n_rows * LINE_BYTES)
        self._lib.sd_din_decode(
            stored, flags, n_rows, LINE_BYTES, ctypes.addressof(out)
        )
        return out.raw

    def pack_less_than(self, draws: bytes, n: int, threshold: float) -> bytes:
        if n == LINE_BITS:
            self._lib.sd_pack_less_than(draws, n, threshold, self._line_addr)
            return self._line_buf.raw
        out = ctypes.create_string_buffer((n + 7) // 8)
        self._lib.sd_pack_less_than(draws, n, threshold, ctypes.addressof(out))
        return out.raw

    def pack_bits(self, bits: bytes, n: int) -> bytes:
        if n == LINE_BITS:
            self._lib.sd_pack_bits(bits, n, self._line_addr)
            return self._line_buf.raw
        out = ctypes.create_string_buffer((n + 7) // 8)
        self._lib.sd_pack_bits(bits, n, ctypes.addressof(out))
        return out.raw

    def bit_positions(self, buf: bytes, count: int) -> List[int]:
        self._lib.sd_bit_positions(buf, len(buf), self._pos_addr)
        return self._pos_view[:count].tolist()


def _make_ops() -> _COps:
    """Load (or build) the native library, or raise BackendUnavailable."""
    reasons = []
    prebuilt = _prebuilt_library()
    if prebuilt is not None:
        try:
            return _COps(_load_library(prebuilt))
        except BackendUnavailable as exc:
            reasons.append(str(exc))
    try:
        return _COps(_load_library(_build_library()))
    except BackendUnavailable as exc:
        reasons.append(str(exc))
    raise BackendUnavailable(
        "compiled kernel backend unavailable: " + "; ".join(reasons)
    )


class CompiledBackend(KernelBackend):
    """C-accelerated kernels with a self-retiring Python fallback."""

    name = "compiled"
    #: The native flavour (kept for reports that print it).
    flavor = "c"

    def __init__(self) -> None:
        self._ops = _make_ops()
        self._py = PythonBackend()
        self._dead = False

    @property
    def dead(self) -> bool:
        """True once a runtime failure retired the native kernels."""
        return self._dead

    def _retire(self, exc: BaseException) -> None:
        if not self._dead:
            self._dead = True
            warnings.warn(
                f"compiled kernel backend failed at runtime ({exc!r}); "
                "falling back to the pure-Python backend",
                RuntimeWarning,
                stacklevel=3,
            )
            try:
                from ...resilience.breaker import breaker

                breaker("kernel").record_failure(exc)
            except Exception:  # supervision must never break the fallback
                pass

    # -- disturbance sampling ----------------------------------------------------

    def sample_mask_int(
        self, candidates: int, probability: float, rng: np.random.Generator
    ) -> int:
        if self._dead:
            return self._py.sample_mask_int(candidates, probability, rng)
        if probability <= 0.0 or candidates == 0:
            return 0
        if probability >= 1.0:
            return candidates
        keep = rng.random(candidates.bit_count()) < probability
        try:
            out = self._ops.apply_keep(
                candidates.to_bytes(LINE_BYTES, "little"), keep.tobytes(), 1
            )
        except Exception as exc:
            self._retire(exc)
            return L._apply_keep(candidates, keep)
        return int.from_bytes(out, "little")

    def sample_masks_int(
        self, candidates: List[int], probability: float, rng: np.random.Generator
    ) -> List[int]:
        if self._dead:
            return self._py.sample_masks_int(candidates, probability, rng)
        if probability <= 0.0:
            return [0] * len(candidates)
        if probability >= 1.0:
            return list(candidates)
        counts = [value.bit_count() for value in candidates]
        total = sum(counts)
        if total == 0:
            return [0] * len(candidates)
        keep = rng.random(total) < probability
        payload = b"".join(
            value.to_bytes(LINE_BYTES, "little") for value in candidates
        )
        try:
            data = self._ops.apply_keep(payload, keep.tobytes(), len(candidates))
        except Exception as exc:
            self._retire(exc)
            return self._apply_keep_fallback(candidates, counts, keep)
        return [
            int.from_bytes(data[r * LINE_BYTES:(r + 1) * LINE_BYTES], "little")
            for r in range(len(candidates))
        ]

    @staticmethod
    def _apply_keep_fallback(
        candidates: List[int], counts: List[int], keep: np.ndarray
    ) -> List[int]:
        """Finish a batch with the Python scatter and the drawn flags."""
        result: List[int] = []
        offset = 0
        for value, n in zip(candidates, counts):
            if n == 0:
                result.append(0)
            else:
                result.append(L._apply_keep(value, keep[offset:offset + n]))
                offset += n
        return result

    def sample_masks_rows(
        self, rows: np.ndarray, probability: float, rng: np.random.Generator
    ) -> np.ndarray:
        if self._dead:
            return self._py.sample_masks_rows(rows, probability, rng)
        rows = np.asarray(rows)
        n_rows = len(rows)
        result = np.zeros((n_rows, LINE_WORDS), L.WORD_DTYPE)
        if n_rows == 0 or probability <= 0.0:
            return result
        if probability >= 1.0:
            result[:] = rows
            return result
        counts = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        total = int(counts.sum())
        if total == 0:
            return result
        keep = rng.random(total) < probability
        try:
            data = self._ops.apply_keep(
                np.ascontiguousarray(rows).tobytes(), keep.tobytes(), n_rows
            )
        except Exception as exc:
            self._retire(exc)
            values = L.unpack_rows(rows)
            return L.pack_rows(
                self._apply_keep_fallback(values, [int(c) for c in counts], keep)
            )
        return np.frombuffer(data, L.WORD_DTYPE).reshape(n_rows, LINE_WORDS).copy()

    # -- counting / positions ----------------------------------------------------

    def popcount_rows(self, rows: np.ndarray) -> np.ndarray:
        # numpy's SIMD bitwise_count beats a byte-loop C popcount at every
        # batch size measured, so this kernel stays on the reference.
        return self._py.popcount_rows(rows)

    def bit_positions_int(self, value: int) -> List[int]:
        if self._dead or value == 0:
            return self._py.bit_positions_int(value)
        try:
            return self._ops.bit_positions(
                value.to_bytes(LINE_BYTES, "little"), value.bit_count()
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.bit_positions_int(value)

    # -- DIN inversion coding ----------------------------------------------------

    def encode_stored_int(self, physical: int, data: int) -> Tuple[int, int]:
        if self._dead:
            return self._py.encode_stored_int(physical, data)
        try:
            stored, flags = self._ops.din_encode(
                physical.to_bytes(LINE_BYTES, "little"),
                data.to_bytes(LINE_BYTES, "little"),
                1,
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.encode_stored_int(physical, data)
        return (
            int.from_bytes(stored, "little"),
            int.from_bytes(flags, "little"),
        )

    def decode_int(self, stored: int, flags: int) -> int:
        # The numpy flag-expand LUT + one big-int XOR is already faster
        # than a native call round-trip for a single line.
        return self._py.decode_int(stored, flags)

    def encode_stored_rows(
        self, physical: np.ndarray, data: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._dead:
            return self._py.encode_stored_rows(physical, data)
        n = len(physical)
        try:
            stored, flags = self._ops.din_encode(
                np.ascontiguousarray(physical).tobytes(),
                np.ascontiguousarray(data).tobytes(),
                n,
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.encode_stored_rows(physical, data)
        return (
            np.frombuffer(stored, L.WORD_DTYPE).reshape(n, LINE_WORDS).copy(),
            np.frombuffer(flags, np.uint64).copy(),
        )

    def decode_rows(self, stored: np.ndarray, flags: np.ndarray) -> np.ndarray:
        if self._dead:
            return self._py.decode_rows(stored, flags)
        n = len(stored)
        try:
            data = self._ops.din_decode(
                np.ascontiguousarray(stored).tobytes(),
                np.asarray(flags).astype(np.uint64).tobytes(),
                n,
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.decode_rows(stored, flags)
        return np.frombuffer(data, L.WORD_DTYPE).reshape(n, LINE_WORDS).copy()

    # -- mask packing ------------------------------------------------------------

    def pack_mask(self, bits: np.ndarray) -> int:
        # numpy's SIMD packbits beats the native round-trip for one line;
        # the C bit-packer is still exercised via mask_from_draws, where
        # fusing the threshold compare into the pack wins.
        return self._py.pack_mask(bits)

    def mask_from_draws(self, draws: np.ndarray, threshold: float) -> int:
        if self._dead:
            return self._py.mask_from_draws(draws, threshold)
        flat = np.ascontiguousarray(draws, np.float64)
        try:
            out = self._ops.pack_less_than(
                flat.tobytes(), len(flat), float(threshold)
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.mask_from_draws(draws, threshold)
        return int.from_bytes(out, "little")
