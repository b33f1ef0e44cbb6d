"""Kernel-backend interface for the hot bit-kernels.

A :class:`KernelBackend` bundles the inner-loop kernels every write
executes — disturbance sampling, DIN row coding, popcounts, set-bit
extraction, mask packing — behind one dispatch surface so the execution
layer (``core/vnc.py``, ``pcm/stateplane.py``, ``perf/batch.py``) can
swap implementations per process or per batch.

Three interchangeable implementations live in this package:

``python``
    the reference int-domain kernels from :mod:`repro.pcm.line` /
    :mod:`repro.pcm.din` (CPython big-int bit ops + numpy LUT gathers);
``numpy``
    packed-uint64 row kernels — scalar entry points route through the
    whole-chunk row forms so numpy amortises dispatch over many lines
    (selected only when forced with ``REPRO_KERNEL_BACKEND=numpy``);
``compiled``
    a small C shared library (built on demand, loaded via ctypes) for
    the scatter/LUT/pack loops; RNG draws stay in Python so streams
    match the reference draw-for-draw.

**Byte-identity is the hard contract.**  Every backend must produce
bit-for-bit identical masks, stored images, and flag words — and consume
the *same RNG draws in the same order* — as the retained scalar
references.  The property-based suite in ``tests/test_kernel_backends.py``
pins this for all registered backends.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ...errors import ReproError


class BackendUnavailable(ReproError, RuntimeError):
    """Raised when a kernel backend cannot be constructed on this host.

    The registry treats this as "not installed" (e.g. no C compiler and
    no prebuilt library for the compiled backend) — callers degrade to
    the pure-Python backend rather than failing the run.  Subclasses
    ``RuntimeError`` for backwards compatibility and
    :class:`~repro.errors.ReproError` so it classifies under the unified
    taxonomy (kernel failure, degraded mode: pure Python).
    """

    category = "kernel"
    degraded_mode = "python"


class KernelBackend:
    """Dispatch interface for the hot bit-kernels.

    Subclasses override the kernels they accelerate; the base class has
    no default implementations (each backend states its full surface
    explicitly so equivalence tests cover every method of every
    backend).  Method names mirror the :mod:`repro.pcm.line` /
    :class:`repro.pcm.din.DINEncoder` functions they replace.
    """

    #: Registry name ("python" / "numpy" / "compiled").
    name: str = "base"

    # -- disturbance sampling ----------------------------------------------------

    def sample_mask_int(
        self, candidates: int, probability: float, rng: np.random.Generator
    ) -> int:
        """Keep each set bit of an int-domain mask with ``probability``.

        Must consume exactly ``rng.random(popcount(candidates))`` draws
        (none at the 0/1-probability or empty edges).
        """
        raise NotImplementedError

    def sample_masks_int(
        self, candidates: List[int], probability: float, rng: np.random.Generator
    ) -> List[int]:
        """Batched :meth:`sample_mask_int`; one ``rng.random(total)`` draw."""
        raise NotImplementedError

    def sample_masks_rows(
        self, rows: np.ndarray, probability: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Row-batched sampling over an ``(N, 8)`` uint64 array."""
        raise NotImplementedError

    # -- counting / positions ----------------------------------------------------

    def popcount_rows(self, rows: np.ndarray) -> np.ndarray:
        """Per-row popcounts of an ``(N, 8)`` batch (int64 result)."""
        raise NotImplementedError

    def bit_positions_int(self, value: int) -> List[int]:
        """Sorted cell indices of the set bits of an int-domain mask."""
        raise NotImplementedError

    # -- DIN inversion coding ----------------------------------------------------

    def encode_stored_int(self, physical: int, data: int) -> Tuple[int, int]:
        """DIN-encode one int-domain write; returns ``(stored, flags)``."""
        raise NotImplementedError

    def decode_int(self, stored: int, flags: int) -> int:
        """Undo :meth:`encode_stored_int`."""
        raise NotImplementedError

    def encode_stored_rows(
        self, physical: np.ndarray, data: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-batched DIN encode over ``(N, 8)`` batches."""
        raise NotImplementedError

    def decode_rows(self, stored: np.ndarray, flags: np.ndarray) -> np.ndarray:
        """Row-batched DIN decode."""
        raise NotImplementedError

    # -- mask packing ------------------------------------------------------------

    def pack_mask(self, bits: np.ndarray) -> int:
        """Pack a 0/1 uint8 vector (little-endian bit order) into an int mask."""
        raise NotImplementedError

    def mask_from_draws(self, draws: np.ndarray, threshold: float) -> int:
        """Int mask with bit ``i`` set where ``draws[i] < threshold``.

        The ``rng.random(n) < p`` + packbits recipe used by the flip and
        weak-cell mask generators, fused so compiled backends can do the
        compare and the pack in one pass.
        """
        return self.pack_mask((draws < threshold).astype(np.uint8))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"
