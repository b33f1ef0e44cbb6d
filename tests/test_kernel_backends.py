"""The kernel-backend registry and cross-backend byte-identity.

Every registered backend (``python``, ``numpy``, ``compiled``) must
produce bit-identical masks, stored images, and flag words — and consume
the same RNG draws in the same order — as the pure-Python reference.
These tests pin that contract property-based over random masks and edge
probabilities, plus the registry semantics (lazy memoised construction,
force-mode errors, graceful degradation) and the compiled backend's
crash containment: a native kernel that raises mid-run retires itself
with one warning and finishes byte- and stream-identically in Python.

Backends unavailable on the host (no C compiler for ``compiled``) skip
their equivalence cases; the registry/degradation tests simulate such
hosts with the ``no_compiler`` fixture.  The equivalence suites set no
Hypothesis deadline: they check results, not wall-clock time.
"""

from __future__ import annotations

import hashlib
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import envconfig
from repro.config import LINE_BITS, LINE_WORDS, SystemConfig
from repro.core import schemes
from repro.pcm import kernels
from repro.pcm import line as L
from repro.pcm.kernels.base import BackendUnavailable
from repro.pcm.kernels.python_backend import PythonBackend

words = st.integers(min_value=0, max_value=(1 << 64) - 1)
mask_ints = st.one_of(
    st.lists(st.integers(0, LINE_BITS - 1), unique=True, max_size=24).map(
        lambda bits: sum(1 << b for b in bits)
    ),
    st.lists(words, min_size=LINE_WORDS, max_size=LINE_WORDS).map(
        lambda ws: sum(w << (64 * i) for i, w in enumerate(ws))
    ),
)
probabilities = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.just(1e-12),
    st.just(1.0 - 1e-12),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

REFERENCE = PythonBackend()


def backend_or_skip(name: str) -> kernels.KernelBackend:
    """The memoised backend, or a skip on hosts that cannot build it."""
    try:
        return kernels.get_backend(name)
    except BackendUnavailable as exc:
        pytest.skip(f"{name} backend unavailable here: {exc}")


def _rows(values) -> np.ndarray:
    return L.pack_rows(list(values))


# -- registry semantics ------------------------------------------------------


class TestRegistry:
    def test_envconfig_names_pin_the_registry(self):
        """The import-light envconfig literal must track the registry."""
        assert envconfig.KERNEL_BACKENDS == ("auto",) + kernels.BACKEND_NAMES

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend("fortran")

    def test_construction_is_memoised(self):
        assert kernels.get_backend("numpy") is kernels.get_backend("numpy")
        assert kernels.get_backend(" NumPy ") is kernels.get_backend("numpy")

    def test_active_defaults_to_python(self):
        kernels.reset()
        assert kernels.active().name == "python"
        assert kernels.active_name() == "python"

    def test_activate_and_reset(self):
        kernels.activate("numpy")
        assert kernels.active_name() == "numpy"
        kernels.reset()
        assert kernels.active_name() == "python"

    def test_available_always_includes_the_pure_backends(self):
        available = kernels.available_backends()
        assert "python" in available and "numpy" in available
        # Registry order is preserved (a subsequence of BACKEND_NAMES).
        order = [kernels.BACKEND_NAMES.index(name) for name in available]
        assert order == sorted(order)

    def test_unavailability_is_memoised(self, no_compiler):
        with pytest.raises(BackendUnavailable):
            kernels.get_backend("compiled")
        # The failed probe is remembered: no second build attempt, and
        # the name stays out of the available set.
        with pytest.raises(BackendUnavailable):
            kernels.get_backend("compiled")
        assert kernels.available_backends() == ("python", "numpy")

    def test_activate_preferred_degrades_to_python(self, no_compiler):
        backend = kernels.activate_preferred("compiled")
        assert backend.name == "python"
        assert kernels.active_name() == "python"
        # But a constructible preference is honoured.
        assert kernels.activate_preferred("numpy").name == "numpy"

    def test_forced_unavailable_backend_fails_the_runner(self, no_compiler):
        """Forcing a backend the host lacks is an error, not a degrade."""
        from repro.experiments import common
        from repro.perf.cache import ResultCache
        from repro.perf.engine import CellRunner

        runner = CellRunner(jobs=1, kernel_backend="compiled")
        spec = common.cell("stream", schemes.baseline(), length=40, cores=2)
        with pytest.raises(BackendUnavailable):
            runner.run_cells([spec])

    def test_runner_rejects_unknown_kernel_name(self):
        from repro.perf.engine import CellRunner

        with pytest.raises(ValueError, match="kernel_backend must be one of"):
            CellRunner(jobs=1, kernel_backend="fastest")


# -- cross-backend equivalence ----------------------------------------------


@pytest.mark.parametrize("name", kernels.BACKEND_NAMES)
class TestBackendEquivalence:
    """Every backend against the pure-Python reference, same RNG streams."""

    @settings(max_examples=120, deadline=None)
    @given(mask_ints, probabilities, seeds)
    def test_sample_mask_int(self, name, mask, p, seed):
        backend = backend_or_skip(name)
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = backend.sample_mask_int(mask, p, fast_rng)
        want = REFERENCE.sample_mask_int(mask, p, ref_rng)
        assert got == want
        # Identical draw consumption: the streams stay in lock-step.
        assert fast_rng.random() == ref_rng.random()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(mask_ints, max_size=5), probabilities, seeds)
    def test_sample_masks_int(self, name, values, p, seed):
        backend = backend_or_skip(name)
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = backend.sample_masks_int(values, p, fast_rng)
        want = REFERENCE.sample_masks_int(values, p, ref_rng)
        assert got == want
        assert fast_rng.random() == ref_rng.random()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(mask_ints, max_size=5), probabilities, seeds)
    def test_sample_masks_rows(self, name, values, p, seed):
        backend = backend_or_skip(name)
        rows = _rows(values)
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = backend.sample_masks_rows(rows, p, fast_rng)
        want = REFERENCE.sample_masks_rows(rows, p, ref_rng)
        assert np.array_equal(got, want)
        assert fast_rng.random() == ref_rng.random()

    def test_edges_draw_nothing(self, name):
        backend = backend_or_skip(name)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state["state"]["state"]
        assert backend.sample_mask_int(0, 0.5, rng) == 0
        assert backend.sample_mask_int(L.MASK_ALL, 0.0, rng) == 0
        assert backend.sample_mask_int(L.MASK_ALL, 1.0, rng) == L.MASK_ALL
        assert backend.sample_masks_int([], 0.5, rng) == []
        assert backend.sample_masks_int([0, 0], 0.5, rng) == [0, 0]
        empty = np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)
        assert backend.sample_masks_rows(empty, 0.5, rng).shape == empty.shape
        assert rng.bit_generator.state["state"]["state"] == before

    @settings(max_examples=100, deadline=None)
    @given(mask_ints, mask_ints)
    def test_din_int_coders(self, name, physical, data):
        backend = backend_or_skip(name)
        stored, flags = backend.encode_stored_int(physical, data)
        assert (stored, flags) == REFERENCE.encode_stored_int(physical, data)
        assert backend.decode_int(stored, flags) == data

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(mask_ints, mask_ints), min_size=1, max_size=5))
    def test_din_row_coders(self, name, pairs):
        backend = backend_or_skip(name)
        physical = _rows(p for p, _ in pairs)
        data = _rows(d for _, d in pairs)
        stored, flags = backend.encode_stored_rows(physical, data)
        ref_stored, ref_flags = REFERENCE.encode_stored_rows(physical, data)
        assert np.array_equal(stored, ref_stored)
        assert np.array_equal(flags, ref_flags)
        decoded = backend.decode_rows(stored, flags)
        assert np.array_equal(decoded, data)

    @settings(max_examples=100, deadline=None)
    @given(mask_ints)
    def test_counting_kernels(self, name, mask):
        backend = backend_or_skip(name)
        assert backend.bit_positions_int(mask) == (
            REFERENCE.bit_positions_int(mask)
        )
        rows = _rows([mask, 0, L.MASK_ALL])
        assert np.array_equal(
            backend.popcount_rows(rows), REFERENCE.popcount_rows(rows)
        )

    @settings(max_examples=100, deadline=None)
    @given(seeds, probabilities)
    def test_mask_packing(self, name, seed, threshold):
        backend = backend_or_skip(name)
        rng = np.random.default_rng(seed)
        draws = rng.random(LINE_BITS)
        assert backend.mask_from_draws(draws, threshold) == (
            REFERENCE.mask_from_draws(draws, threshold)
        )
        bits = (draws < 0.5).astype(np.uint8)
        assert backend.pack_mask(bits) == REFERENCE.pack_mask(bits)


def _digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


def _tiny_spec():
    from repro.perf.cellspec import CellSpec

    config = SystemConfig(cores=2, seed=1).with_scheme(
        schemes.by_name("LazyC+PreRead")
    )
    return CellSpec(bench="mcf", length=60, config=config)


def _simulate_under(name: str) -> str:
    from repro.pcm import stateplane
    from repro.perf.cellspec import simulate_cell

    stateplane.PLANE.reset()
    kernels.activate(name)
    try:
        return _digest(simulate_cell(_tiny_spec()))
    finally:
        kernels.reset()
        stateplane.PLANE.reset()


class TestFullCellEquivalence:
    """A whole simulated cell is byte-identical under every backend."""

    @pytest.mark.parametrize("name", ("numpy", "compiled"))
    def test_cell_digest_matches_python(self, name):
        backend_or_skip(name)
        assert _simulate_under(name) == _simulate_under("python")


# -- compiled-backend crash containment --------------------------------------


class _FlakyOps:
    """Delegates to the real native ops until a fuse burns, then raises."""

    def __init__(self, real, fuse: int) -> None:
        self._real = real
        self._fuse = fuse

    def _call(self, method, *args):
        if self._fuse <= 0:
            raise RuntimeError("simulated native kernel crash")
        self._fuse -= 1
        return getattr(self._real, method)(*args)

    def apply_keep(self, *args):
        return self._call("apply_keep", *args)

    def din_encode(self, *args):
        return self._call("din_encode", *args)

    def din_decode(self, *args):
        return self._call("din_decode", *args)

    def pack_less_than(self, *args):
        return self._call("pack_less_than", *args)

    def pack_bits(self, *args):
        return self._call("pack_bits", *args)

    def bit_positions(self, *args):
        return self._call("bit_positions", *args)



def _fresh_compiled():
    from repro.pcm.kernels.compiled_backend import CompiledBackend

    try:
        return CompiledBackend()
    except BackendUnavailable as exc:
        pytest.skip(f"compiled backend unavailable here: {exc}")


class TestCompiledCrashFallback:
    def test_crash_retires_with_one_warning_and_identical_result(self):
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        mask = (1 << 511) | (1 << 77) | 0xF0F0
        fast_rng = np.random.default_rng(3)
        ref_rng = np.random.default_rng(3)
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = backend.sample_mask_int(mask, 0.4, fast_rng)
        # The already-drawn keep flags are replayed by the Python
        # scatter: same bytes, same stream position.
        assert got == REFERENCE.sample_mask_int(mask, 0.4, ref_rng)
        assert fast_rng.random() == ref_rng.random()
        assert backend.dead is True

    def test_retired_backend_delegates_silently(self):
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        with pytest.warns(RuntimeWarning):
            backend.encode_stored_int(3, 5)
        # Every later call rides the Python backend without re-warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stored, flags = backend.encode_stored_int(3, 5)
            assert (stored, flags) == REFERENCE.encode_stored_int(3, 5)
            rng = np.random.default_rng(9)
            ref = np.random.default_rng(9)
            assert backend.sample_masks_int([7, 0, 1 << 300], 0.6, rng) == (
                REFERENCE.sample_masks_int([7, 0, 1 << 300], 0.6, ref)
            )

    def test_batched_crash_replays_drawn_flags(self):
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        values = [(1 << 200) - 1, 0, 0xDEADBEEF << 64]
        fast_rng = np.random.default_rng(17)
        ref_rng = np.random.default_rng(17)
        with pytest.warns(RuntimeWarning):
            got = backend.sample_masks_int(values, 0.3, fast_rng)
        assert got == REFERENCE.sample_masks_int(values, 0.3, ref_rng)
        assert fast_rng.random() == ref_rng.random()
        rows = _rows(values)
        fast_rng = np.random.default_rng(23)
        ref_rng = np.random.default_rng(23)
        assert np.array_equal(
            backend.sample_masks_rows(rows, 0.3, fast_rng),
            REFERENCE.sample_masks_rows(rows, 0.3, ref_rng),
        )
        assert fast_rng.random() == ref_rng.random()

    def test_midrun_crash_leaves_the_cell_byte_identical(self):
        """The chaos case: native kernels die partway through a cell."""
        from repro.pcm import stateplane
        from repro.perf.cellspec import simulate_cell

        reference = _simulate_under("python")
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=100)
        kernels._instances["compiled"] = backend
        kernels._active = backend
        stateplane.PLANE.reset()
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                chaos = _digest(simulate_cell(_tiny_spec()))
        finally:
            kernels.reset()
            stateplane.PLANE.reset()
        assert backend.dead is True
        assert chaos == reference
