"""Compiled kernel backend: the C extension module built from ``_kernels.c``.

``_kernels.c`` is a CPython extension module: its functions take and
return Python ints (a line is a 512-bit int, as everywhere else in the
simulator), so a call costs about what its C loop costs.  The build is
one ``cc -O2 -shared -fPIC -I<Python include dir>`` invocation and needs
the running interpreter's ``Python.h``.  Resolution order:

1. a **prebuilt** module next to this package (``_kernels`` plus one of
   the interpreter's extension suffixes, dropped by the best-effort
   ``setup.py`` build step), accepted only if it imports and reports
   the current ABI;
2. a **cached build** under ``<cache_dir>/kernels/``, keyed by the
   source hash and the interpreter's ``EXT_SUFFIX`` so a stale or
   foreign module is never reused;
3. a fresh compile with ``REPRO_KERNEL_CC`` (or the first of
   ``cc``/``gcc``/``clang`` on ``PATH``).

If none loads (no compiler, no ``Python.h``), construction raises
:class:`~.base.BackendUnavailable` and the engine runs the pure-Python
backend instead.  ``decode_int`` (a 256-entry int-table XOR) stays in
Python, which beats a native round trip.

**Event loop**: the module also holds ``NativeLoop``, the replay's
event heap and dispatch in C; :attr:`CompiledBackend.native_loop` hands
it to :func:`repro.core.engine.new_loop` until the backend retires.

**Caller-stream draws**: ``sample_mask_int``, ``sample_masks_int`` and
``draw_mask`` draw their uniforms in C from the caller's generator,
through its ``bit_generator.capsule`` (numpy's ``bitgen_t``) and its
``next_double``.  ``Generator.random(n)`` is exactly ``n``
``next_double`` calls, so the C loop consumes the stream draw for draw
as the Python reference does (one uniform per candidate bit in
ascending cell order, or ``n`` uniforms for a flip mask).  The caller's
generator must not be used from another thread during the call; the
simulator drives each generator from one thread.

**Seeded generation**: ``seeded_line``/``seeded_mask`` (the pristine
lines and weak-cell masks of the state plane) run numpy's
``SeedSequence`` -> ``PCG64`` recipe in C, bit for bit, after
:func:`_entropy` coerces the key to 32-bit words exactly as numpy does
(a bad key raises numpy's error here, before the native call).
``seeded_line`` seeds the row's stream and jumps it ``8 * line``
outputs ahead (the LCG's O(log n) jump), so a line costs eight draws
whichever line it is, and no row image is ever built; ``row_stream``
packs a row's key once and draws each of its lines that way.
``seeded_rng`` runs only the seeding in C and sets the resulting ``PCG64`` state on
one reused generator, from which numpy draws as usual.  They read no caller stream,
so a failure falls back by regenerating the value with the numpy
reference.

**Crash containment**: a native sampler that raises does so *before*
it consumes any draw — every fallible step (the int conversions, of
every element of a batch; the capsule lookup; the float parse) precedes
the C loop, and the loop itself cannot raise.  The backend then retires
itself (one warning) and the Python reference computes the result from
the untouched stream, drawing exactly what the native sampler would
have drawn — byte-identical, stream-identical.  Every later call
delegates to the Python backend (the seeded generators simply
regenerate with the reference).  A compiled-kernel failure can
therefore never corrupt a result or desynchronise an RNG stream.
"""

from __future__ import annotations

import hashlib
import operator
import os
import shutil
import struct
import subprocess
import sys
import sysconfig
import warnings
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path
from types import ModuleType
from typing import Callable, List, Optional, Tuple

import numpy as np

from ... import envconfig
from ...errors import SimulationError
from .. import din as D
from .. import line as L
from .base import BackendUnavailable, KernelBackend
from .python_backend import PythonBackend

#: Expected ``ABI`` of a loadable module; a module with another
#: entry-point set fails the probe and is rebuilt from source.
_ABI_VERSION = 9

_SOURCE = Path(__file__).with_name("_kernels.c")
#: Where a prebuilt module sits (next to this package's sources).
_PACKAGE_DIR = _SOURCE.parent
#: The import name every build is loaded under (``PyInit__kernels``).
_MODULE_NAME = f"{__package__}._kernels"


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


def _python_include() -> Path:
    """The running interpreter's C header directory."""
    return Path(sysconfig.get_paths()["include"])


def _load_module(path: Path) -> ModuleType:
    """Import the extension at ``path``, check its ABI, install the DIN LUTs."""
    loader = ExtensionFileLoader(_MODULE_NAME, str(path))
    try:
        module = module_from_spec(spec_from_loader(_MODULE_NAME, loader))
        loader.exec_module(module)
    except (ImportError, OSError) as exc:
        raise BackendUnavailable(f"cannot import kernel module {path}: {exc}") from None
    abi = getattr(module, "ABI", None)
    if abi != _ABI_VERSION:
        raise BackendUnavailable(
            f"kernel module {path} has ABI {abi}, expected {_ABI_VERSION}"
        )
    stored, invert = D.din_tables()
    module.set_din_tables(stored.tobytes(), invert.tobytes())
    module.set_time_error(SimulationError)
    return module


def _prebuilt_library(reasons: List[str]) -> Optional[ModuleType]:
    """The prebuilt module shipped next to the package, if one imports
    and reports the current ABI; each skipped candidate adds a reason."""
    for suffix in EXTENSION_SUFFIXES:
        path = _PACKAGE_DIR / f"_kernels{suffix}"
        if path.is_file():
            try:
                return _load_module(path)
            except BackendUnavailable as exc:
                reasons.append(str(exc))
    return None


def _build_library() -> Path:
    """Compile ``_kernels.c`` into the cache dir (content-addressed)."""
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:12]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or EXTENSION_SUFFIXES[0]
    out_dir = envconfig.cache_dir() / "kernels"
    out = out_dir / f"sd_kernels_{digest}{suffix}"
    if out.exists():
        return out
    include = _python_include()
    if not (include / "Python.h").is_file():
        raise BackendUnavailable(
            f"Python.h not found in {include} (install the Python "
            "development headers)"
        )
    cc = _find_compiler()
    if cc is None:
        raise BackendUnavailable(
            "no C compiler found (set REPRO_KERNEL_CC or install cc/gcc/clang)"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f"sd_kernels_{digest}.tmp{os.getpid()}{suffix}")
    cmd = [cc, "-O2", "-shared", "-fPIC", f"-I{include}",
           "-o", str(tmp), str(_SOURCE)]
    if sys.platform == "darwin":  # libpython symbols resolve at import
        cmd[1:1] = ["-undefined", "dynamic_lookup"]
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


#: Packers of ``n`` little-endian uint32 words, by ``n`` (keys have 3 or 4).
_PACKERS = tuple(struct.Struct(f"<{n}I") for n in range(9))


def _entropy(key: Tuple[int, ...]) -> bytes:
    """``key`` as the little-endian uint32 words numpy's ``SeedSequence``
    coerces it to: each int split into 32-bit words, low word first, and
    ``0`` as one zero word.  Negative ints fail the way numpy fails."""
    try:  # the common case: every int fits one word
        return _PACKERS[len(key)].pack(*key)
    except (IndexError, struct.error):
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


def _make_ops() -> ModuleType:
    """Load (or build) the extension module, or raise BackendUnavailable."""
    reasons: List[str] = []
    prebuilt = _prebuilt_library(reasons)
    if prebuilt is not None:
        return prebuilt
    try:
        return _load_module(_build_library())
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
        #: ``ABI`` of the loaded extension module.
        self.abi: int = self._ops.ABI
        self._loop_type: type = self._ops.NativeLoop
        self._py = PythonBackend()
        self._dead = False
        self._bitgen = None
        self._capsule = None
        #: The one generator ``seeded_rng`` re-seeds and hands out, made
        #: on first use (numpy's first seeding costs milliseconds).
        self._seeded: Optional[np.random.Generator] = None

    @property
    def dead(self) -> bool:
        """True once a runtime failure retired the native kernels."""
        return self._dead

    @property
    def native_loop(self) -> Optional[type]:
        """The module's ``NativeLoop`` type, until the backend retires."""
        return None if self._dead else self._loop_type

    def _retire(self, exc: BaseException) -> None:
        if not self._dead:
            self._dead = True
            warnings.warn(
                f"compiled kernel backend failed at runtime ({exc!r}); "
                "falling back to the pure-Python backend",
                RuntimeWarning,
                stacklevel=3,
            )

    def _stream(self, rng: np.random.Generator):
        """The ``"BitGenerator"`` capsule of ``rng``'s bit generator.

        Memoised for the last generator seen (one executor draws from one
        generator for a whole cell); the reference keeps it alive, so the
        capsule's ``bitgen_t`` stays valid.
        """
        bitgen = rng.bit_generator
        if bitgen is not self._bitgen:
            self._capsule = bitgen.capsule
            self._bitgen = bitgen
        return self._capsule

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
            return self._ops.sample_keep(
                candidates, probability, self._stream(rng)
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.sample_mask_int(candidates, probability, rng)

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
            return self._ops.sample_keep(
                candidates, probability, self._stream(rng)
            )
        except Exception as exc:
            self._retire(exc)
            return self._py.sample_masks_int(candidates, probability, rng)

    def draw_mask(
        self, rng: np.random.Generator, bits: int, threshold: float
    ) -> int:
        if self._dead:
            return self._py.draw_mask(rng, bits, threshold)
        try:
            return self._ops.draw_less_than(bits, threshold, self._stream(rng))
        except Exception as exc:
            self._retire(exc)
            return self._py.draw_mask(rng, bits, threshold)

    # -- positions ---------------------------------------------------------------

    def bit_positions_int(self, value: int) -> List[int]:
        if self._dead:
            return L.bit_positions_int(value)
        try:
            return self._ops.bit_positions(value)
        except Exception as exc:
            self._retire(exc)
            return L.bit_positions_int(value)

    # -- DIN inversion coding ----------------------------------------------------

    def encode_stored_int(self, physical: int, data: int) -> Tuple[int, int]:
        if self._dead:
            return self._py.encode_stored_int(physical, data)
        try:
            return self._ops.din_encode(physical, data)
        except Exception as exc:
            self._retire(exc)
            return self._py.encode_stored_int(physical, data)

    def decode_int(self, stored: int, flags: int) -> int:
        # The int-table XOR is already faster than a native round trip.
        return D.invert_flagged_bytes(stored, flags)

    # -- seeded generation -------------------------------------------------------

    def seeded_line(self, key: Tuple[int, ...], line: int) -> int:
        return self.row_stream(key)(line)

    def row_stream(self, key: Tuple[int, ...]) -> Callable[[int], int]:
        """``seeded_line`` bound to one row, with the row's key packed
        once when the stream opens, not once per line it draws."""
        if self._dead:
            return self._py.row_stream(key)
        entropy = _entropy(key)

        def line_of(line: int) -> int:
            if not self._dead:
                try:
                    return self._ops.seeded_line(entropy, line)
                except Exception as exc:
                    self._retire(exc)
            return self._py.seeded_line(key, line)

        return line_of

    def seeded_mask(self, key: Tuple[int, ...], bits: int, threshold: float) -> int:
        if self._dead:
            return self._py.seeded_mask(key, bits, threshold)
        entropy = _entropy(key)
        try:
            return self._ops.seeded_less_than(entropy, threshold, bits)
        except Exception as exc:
            self._retire(exc)
            return self._py.seeded_mask(key, bits, threshold)

    def seeded_rng(self, key: Tuple[int, ...]) -> np.random.Generator:
        if self._dead:
            return self._py.seeded_rng(key)
        entropy = _entropy(key)
        try:
            state, inc = self._ops.seeded_state(entropy)
        except Exception as exc:
            self._retire(exc)
            return self._py.seeded_rng(key)
        rng = self._seeded
        if rng is None:
            rng = self._seeded = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng
