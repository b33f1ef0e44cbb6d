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
scalar kernels reuse cached output buffers.  ``decode_int`` (a
256-entry int-table XOR) and ``bit_positions_int`` on masks of at most
:data:`_FEW_BITS` set bits stay in Python, which beats a native round
trip; C is used where per-bit Python loops, per-byte LUT walks, per-draw
numpy round trips or per-key ``default_rng`` construction dominate.

**Caller-stream draws**: ``sample_mask_int``, ``sample_masks_int`` and
``draw_mask`` draw their uniforms in C from the caller's generator,
through its ``bit_generator.ctypes.next_double`` pointer and state
address.  ``Generator.random(n)`` is exactly ``n`` ``next_double``
calls, so the C loop consumes the stream draw for draw as the Python
reference does (one uniform per candidate bit in ascending cell order,
or ``n`` uniforms for a flip mask).  The caller's generator must not be
used from another thread during the call; the simulator drives each
generator from one thread.

**Seeded generation**: ``seeded_words``/``seeded_mask`` (the state
plane's pristine rows and weak-cell masks) run numpy's ``SeedSequence``
-> ``PCG64`` recipe in C, bit for bit, after :func:`_entropy` coerces
the key to 32-bit words exactly as numpy does.  They read no caller
stream, so a failure falls back by regenerating the value with the
numpy reference.

**Crash containment**: a native sampler that raises does so *before*
it consumes any draw — every fallible step (byte conversion, resolving
the stream's pointers, the ctypes call's argument checks) precedes the
C loop, and the loop itself cannot raise.  The backend then retires
itself (one warning) and the Python reference computes the result from
the untouched stream, drawing exactly what the native sampler would
have drawn — byte-identical, stream-identical.  Every later call
delegates to the Python backend (the seeded generators simply
regenerate with the reference).  A compiled-kernel failure can
therefore never corrupt a result or desynchronise an RNG stream.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import shutil
import struct
import subprocess
import warnings
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ... import envconfig
from ...config import LINE_BITS, LINE_BYTES
from .. import din as D
from .. import line as L
from .base import BackendUnavailable, KernelBackend
from .python_backend import PythonBackend

#: Expected ``sd_abi_version()`` of a loadable library; a library with
#: another entry-point set fails the probe and is rebuilt from source.
_ABI_VERSION = 5

_SOURCE = Path(__file__).with_name("_kernels.c")

#: Masks with at most this many set bits take the pure-Python
#: ``bit_positions_int``: its low-bit walk is cheaper than a native
#: round trip for them.
_FEW_BITS = 6


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
    d = ctypes.c_double
    lib.sd_sample_keep.argtypes = [p, i, d, p, p, p]
    lib.sd_sample_keep.restype = None
    lib.sd_din_encode.argtypes = [p, p, p, p, i, i, p, p]
    lib.sd_din_encode.restype = None
    lib.sd_draw_less_than.argtypes = [i, d, p, p, p]
    lib.sd_draw_less_than.restype = None
    lib.sd_bit_positions.argtypes = [p, i, p]
    lib.sd_bit_positions.restype = i
    lib.sd_seeded_words.argtypes = [p, i, p, i]
    lib.sd_seeded_words.restype = None
    lib.sd_seeded_less_than.argtypes = [p, i, d, i, p]
    lib.sd_seeded_less_than.restype = None


class _COps:
    """bytes-in/bytes-out veneer over the ctypes library.

    Single-line calls write into cached buffers whose addresses are
    computed once; batch calls and pristine rows allocate per
    invocation.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self.abi = int(lib.sd_abi_version())
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

    def sample_keep(
        self, cand: bytes, probability: float, stream: Tuple[int, int]
    ) -> bytes:
        """Keep each set bit of ``cand`` iff a draw from ``stream`` is below
        ``probability`` (one draw per set bit, rows back to back)."""
        if len(cand) == LINE_BYTES:
            self._lib.sd_sample_keep(
                cand, LINE_BYTES, probability, *stream, self._line_addr
            )
            return self._line_buf.raw
        out = ctypes.create_string_buffer(len(cand))
        self._lib.sd_sample_keep(cand, len(cand), probability, *stream, out)
        return out.raw

    def din_encode(self, old: bytes, raw: bytes) -> Tuple[bytes, bytes]:
        ctypes.memset(self._flag_addr, 0, 8)
        self._lib.sd_din_encode(
            old, raw, self._stored_ptr, self._invert_ptr,
            1, LINE_BYTES, self._line_addr, self._flag_addr,
        )
        return self._line_buf.raw, self._flag_buf.raw

    def draw_less_than(
        self, n: int, threshold: float, stream: Tuple[int, int]
    ) -> bytes:
        """``n`` draws from ``stream``, bit ``i`` set where draw ``i`` is
        below ``threshold``."""
        if n == LINE_BITS:
            self._lib.sd_draw_less_than(n, threshold, *stream, self._line_addr)
            return self._line_buf.raw
        out = ctypes.create_string_buffer((n + 7) // 8)
        self._lib.sd_draw_less_than(n, threshold, *stream, out)
        return out.raw

    def bit_positions(self, buf: bytes, count: int) -> List[int]:
        self._lib.sd_bit_positions(buf, len(buf), self._pos_addr)
        return self._pos_view[:count].tolist()

    def seeded_words(self, entropy: bytes, count: int) -> bytes:
        out = ctypes.create_string_buffer(count * 8)
        self._lib.sd_seeded_words(entropy, len(entropy) // 4, out, count)
        return out.raw

    def seeded_less_than(self, entropy: bytes, threshold: float, n: int) -> bytes:
        if n == LINE_BITS:
            self._lib.sd_seeded_less_than(
                entropy, len(entropy) // 4, threshold, n, self._line_addr
            )
            return self._line_buf.raw
        out = ctypes.create_string_buffer((n + 7) // 8)
        self._lib.sd_seeded_less_than(entropy, len(entropy) // 4, threshold, n, out)
        return out.raw


def _entropy(key: Tuple[int, ...]) -> bytes:
    """``key`` as the little-endian uint32 words numpy's ``SeedSequence``
    coerces it to: each int split into 32-bit words, low word first, and
    ``0`` as one zero word.  Negative ints fail the way numpy fails."""
    try:  # the common case: every int fits one word
        return struct.pack(f"<{len(key)}I", *key)
    except struct.error:
        pass
    words: List[int] = []
    for value in map(operator.index, key):
        if value < 0:
            raise ValueError("expected non-negative integer")
        if value == 0:
            words.append(0)
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return struct.pack(f"<{len(words)}I", *words)


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
        self._bitgen = None
        self._stream_ptrs: Tuple[int, int] = (0, 0)

    @property
    def abi(self) -> int:
        """``sd_abi_version()`` of the loaded native library."""
        return self._ops.abi

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

    def _stream(self, rng: np.random.Generator) -> Tuple[int, int]:
        """``(next_double, state)`` addresses of ``rng``'s bit generator.

        Memoised for the last generator seen (one executor draws from one
        generator for a whole cell); the reference keeps it alive, so the
        addresses stay valid.
        """
        bitgen = rng.bit_generator
        if bitgen is not self._bitgen:
            iface = bitgen.ctypes
            self._stream_ptrs = (
                ctypes.cast(iface.next_double, ctypes.c_void_p).value,
                iface.state_address,
            )
            self._bitgen = bitgen
        return self._stream_ptrs

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
        try:
            out = self._ops.sample_keep(
                candidates.to_bytes(LINE_BYTES, "little"),
                probability,
                self._stream(rng),
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.sample_mask_int(candidates, probability, rng)
        return int.from_bytes(out, "little")

    def sample_masks_int(
        self, candidates: List[int], probability: float, rng: np.random.Generator
    ) -> List[int]:
        if self._dead:
            return self._py.sample_masks_int(candidates, probability, rng)
        if probability <= 0.0 or not any(candidates):
            return [0] * len(candidates)
        if probability >= 1.0:
            return list(candidates)
        try:
            data = self._ops.sample_keep(
                b"".join([value.to_bytes(LINE_BYTES, "little")
                          for value in candidates]),
                probability,
                self._stream(rng),
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.sample_masks_int(candidates, probability, rng)
        return [
            int.from_bytes(data[r:r + LINE_BYTES], "little")
            for r in range(0, len(data), LINE_BYTES)
        ]

    def draw_mask(
        self, rng: np.random.Generator, bits: int, threshold: float
    ) -> int:
        if self._dead:
            return self._py.draw_mask(rng, bits, threshold)
        try:
            out = self._ops.draw_less_than(
                bits, float(threshold), self._stream(rng)
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.draw_mask(rng, bits, threshold)
        return int.from_bytes(out, "little")

    # -- positions ---------------------------------------------------------------

    def bit_positions_int(self, value: int) -> List[int]:
        count = value.bit_count()
        if self._dead or count <= _FEW_BITS:
            return L.bit_positions_int(value)
        try:
            return self._ops.bit_positions(
                value.to_bytes(LINE_BYTES, "little"), count
            )
        except Exception as exc:
            self._retire(exc)
            return L.bit_positions_int(value)

    # -- DIN inversion coding ----------------------------------------------------

    def encode_stored_int(self, physical: int, data: int) -> Tuple[int, int]:
        if self._dead:
            return self._py.encode_stored_int(physical, data)
        try:
            stored, flags = self._ops.din_encode(
                physical.to_bytes(LINE_BYTES, "little"),
                data.to_bytes(LINE_BYTES, "little"),
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.encode_stored_int(physical, data)
        return (
            int.from_bytes(stored, "little"),
            int.from_bytes(flags, "little"),
        )

    def decode_int(self, stored: int, flags: int) -> int:
        # The int-table XOR is already faster than a native round trip.
        return self._py.decode_int(stored, flags)

    # -- seeded generation -------------------------------------------------------

    def seeded_words(self, key: Tuple[int, ...], count: int) -> bytes:
        if self._dead:
            return self._py.seeded_words(key, count)
        entropy = _entropy(key)
        try:
            return self._ops.seeded_words(entropy, count)
        except Exception as exc:
            self._retire(exc)
            return self._py.seeded_words(key, count)

    def seeded_mask(self, key: Tuple[int, ...], bits: int, threshold: float) -> int:
        if self._dead:
            return self._py.seeded_mask(key, bits, threshold)
        entropy = _entropy(key)
        try:
            out = self._ops.seeded_less_than(entropy, float(threshold), bits)
        except Exception as exc:
            self._retire(exc)
            return self._py.seeded_mask(key, bits, threshold)
        return int.from_bytes(out, "little")
