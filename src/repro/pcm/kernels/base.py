"""Kernel-backend interface for the hot bit-kernels.

A :class:`KernelBackend` bundles the inner-loop kernels every write
executes — disturbance sampling, DIN coding, set-bit extraction, mask
packing — and the state plane's seeded generators behind one dispatch
surface, so the execution layer (``core/vnc.py``,
``pcm/stateplane.py``) can swap implementations per process.  Every
kernel takes and returns lines in the simulator's one per-line form, a
512-bit Python int (see :mod:`repro.pcm.line`).

Three interchangeable implementations live in this package:

``python``
    the reference int-domain kernels from :mod:`repro.pcm.line` /
    :mod:`repro.pcm.din` (CPython big-int bit ops + numpy LUT gathers);
``numpy``
    packed-uint64 variants of the batched sampler and set-bit
    extraction, which pack the ints into ``(N, 8)`` row batches
    internally (selected only when forced with
    ``REPRO_KERNEL_BACKEND=numpy``);
``compiled``
    a small CPython extension module (built on demand against the
    interpreter's ``Python.h``) for the samplers, the DIN LUT walk,
    set-bit extraction and the seeded generators; lines cross into it
    as the same Python ints.  Its samplers draw from the caller's
    generator through the bit generator's capsule and numpy's
    ``next_double``, the same calls ``Generator.random`` makes, so
    streams match the reference draw-for-draw; the seeded generators
    reproduce numpy's ``SeedSequence`` -> ``PCG64`` recipe natively.

**Byte-identity is the hard contract.**  Every backend must produce
bit-for-bit identical masks, stored images, and flag words — and consume
the *same RNG draws in the same order* — as the ``python`` backend's
int kernels, which ``tests/test_kernel_equivalence.py`` pins to the
``_scalar_*`` array references in :mod:`repro.pcm.line`.  The
property-based suite in ``tests/test_kernel_backends.py`` pins this for
all registered backends.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ...errors import ReproError


class BackendUnavailable(ReproError, RuntimeError):
    """Raised when a kernel backend cannot be constructed on this host.

    The registry treats this as "not installed" (e.g. no C compiler or
    no ``Python.h``, and no prebuilt module, for the compiled backend) —
    callers degrade to the pure-Python backend rather than failing the
    run.  Subclasses ``RuntimeError`` for backwards compatibility and
    :class:`~repro.errors.ReproError` so one ``except`` catches every
    library error.
    """


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

        Must consume exactly ``rng.random(candidates.bit_count())`` draws
        (none at the 0/1-probability or empty edges).
        """
        raise NotImplementedError

    def sample_masks_int(
        self, candidates: List[int], probability: float, rng: np.random.Generator
    ) -> List[int]:
        """Batched :meth:`sample_mask_int`; one ``rng.random(total)`` draw."""
        raise NotImplementedError

    # -- positions ---------------------------------------------------------------

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

    # -- mask packing / seeded generation ----------------------------------------

    def draw_mask(
        self, rng: np.random.Generator, bits: int, threshold: float
    ) -> int:
        """Int mask with bit ``i`` set where draw ``i`` of
        ``rng.random(bits)`` is below ``threshold``.

        The flip-mask recipe.  Must consume exactly ``rng.random(bits)``
        draws, whatever the threshold.
        """
        raise NotImplementedError

    def seeded_words(self, key: Tuple[int, ...], count: int) -> bytes:
        """``default_rng(key).integers(0, 2**64, count, dtype=uint64)`` as bytes.

        The state plane's pristine-row recipe.  ``key`` is a tuple of
        non-negative ints, seeded exactly as numpy seeds it.
        """
        raise NotImplementedError

    def seeded_mask(self, key: Tuple[int, ...], bits: int, threshold: float) -> int:
        """``draw_mask(default_rng(key), bits, threshold)``.

        The state plane's weak-cell-mask recipe.
        """
        raise NotImplementedError

    def seeded_rng(self, key: Tuple[int, ...]) -> np.random.Generator:
        """A generator in the state of ``default_rng(key)``.

        The lifetime study's per-line hard-error seeding.  A backend may
        hand out one reused generator, re-seeded on every call: draw from
        it before the next call.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"
