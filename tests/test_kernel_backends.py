"""The kernel-backend registry and cross-backend byte-identity.

Every registered backend (``python``, ``numpy``, ``compiled``) must
produce bit-identical masks, stored images, flag words and seeded state
— and consume the same RNG draws in the same order — as the pure-Python
reference (numpy's own ``default_rng`` for the seeded generators).
These tests pin that contract property-based over random masks and edge
probabilities, plus the registry semantics (lazy memoised construction,
force-mode errors, graceful degradation) and the compiled backend's
crash containment: a native kernel that raises mid-run does so before
it draws, retires itself with one warning, stays retired for the
process, and finishes byte- and stream-identically in Python.

Backends unavailable on the host (no C compiler for ``compiled``) skip
their equivalence cases; the registry/degradation tests simulate such
hosts with the ``no_compiler`` fixture.  The equivalence suites set no
Hypothesis deadline: they check results, not wall-clock time.
"""

from __future__ import annotations

import hashlib
import pickle
import shutil
import subprocess
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import envconfig
from repro.config import LINE_BITS, LINE_WORDS, SystemConfig
from repro.core import schemes
from repro.pcm import din as D
from repro.pcm import kernels
from repro.pcm import line as L
from repro.pcm.kernels import compiled_backend
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
#: Seed words at numpy's coercion edges: one zero word, the largest
#: one-word value, the first two-word value, and a four-word value.
key_ints = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**100]),
    st.integers(min_value=0, max_value=2**70),
)
seed_keys = st.lists(key_ints, min_size=1, max_size=6).map(tuple)
fractions = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-12, 0.5, 0.001]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

REFERENCE = PythonBackend()

#: Sampler edge cases: empty, one bit (lowest, highest), the full line.
EDGE_MASKS = [0, 1, 1 << (LINE_BITS - 1), L.MASK_ALL]
#: Batches with zero rows, all-empty rows and empty rows between others.
EDGE_BATCHES = [
    [],
    [0],
    [0, 0, 0],
    [0, L.MASK_ALL, 0],
    [1 << 200, 0, L.MASK_ALL, 0, 1],
]
STREAM_PROBABILITIES = (0.0, 1e-3, 0.5, 1.0)


def backend_or_skip(name: str) -> kernels.KernelBackend:
    """The memoised backend, or a skip on hosts that cannot build it."""
    try:
        return kernels.get_backend(name)
    except BackendUnavailable as exc:
        pytest.skip(f"{name} backend unavailable here: {exc}")


def numpy_words(key, count: int) -> bytes:
    """The pristine-row recipe, spelled out with numpy."""
    rng = np.random.default_rng(key)
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64).tobytes()


def numpy_mask(key, bits: int, threshold: float) -> int:
    """The weak-mask recipe, spelled out with numpy."""
    draws = np.random.default_rng(key).random(bits)
    packed = np.packbits(draws < threshold, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


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

    def test_edges_draw_nothing(self, name):
        backend = backend_or_skip(name)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state["state"]["state"]
        assert backend.sample_mask_int(0, 0.5, rng) == 0
        assert backend.sample_mask_int(L.MASK_ALL, 0.0, rng) == 0
        assert backend.sample_mask_int(L.MASK_ALL, 1.0, rng) == L.MASK_ALL
        assert backend.sample_masks_int([], 0.5, rng) == []
        assert backend.sample_masks_int([0, 0], 0.5, rng) == [0, 0]
        assert rng.bit_generator.state["state"]["state"] == before

    @settings(max_examples=100, deadline=None)
    @given(mask_ints, mask_ints)
    def test_din_int_coders(self, name, physical, data):
        backend = backend_or_skip(name)
        stored, flags = backend.encode_stored_int(physical, data)
        assert (stored, flags) == REFERENCE.encode_stored_int(physical, data)
        assert backend.decode_int(stored, flags) == data

    @settings(max_examples=100, deadline=None)
    @given(mask_ints)
    def test_counting_kernels(self, name, mask):
        backend = backend_or_skip(name)
        assert backend.bit_positions_int(mask) == (
            REFERENCE.bit_positions_int(mask)
        )

    @settings(max_examples=100, deadline=None)
    @given(seeds, probabilities, st.sampled_from([LINE_BITS, 37, 0]))
    def test_mask_packing(self, name, seed, threshold, bits):
        """The flip-mask draw: ``rng.random(bits) < threshold``, packed,
        always ``bits`` draws."""
        backend = backend_or_skip(name)
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        want = int.from_bytes(
            np.packbits(ref.random(bits) < threshold, bitorder="little").tobytes(),
            "little",
        )
        assert backend.draw_mask(rng, bits, threshold) == want
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("p", (1e-3, 0.115, 0.5))
    def test_sample_masks_int_over_twenty_lines(self, name, p):
        """A batch of 20 lines (longer than any single buffer a native
        batch could assume): equal ints, equal stream state afterwards."""
        backend = backend_or_skip(name)
        values = [
            int.from_bytes(np.random.default_rng(row).bytes(64), "little")
            if row % 3 else 0
            for row in range(20)
        ]
        rng = np.random.default_rng(20)
        ref = np.random.default_rng(20)
        assert backend.sample_masks_int(values, p, rng) == (
            REFERENCE.sample_masks_int(values, p, ref)
        )
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("p", STREAM_PROBABILITIES)
    def test_samplers_keep_the_stream(self, name, p):
        """Edge masks and batches with empty rows: equal ints, and the
        caller's generator in exactly the reference's state afterwards."""
        backend = backend_or_skip(name)
        for seed, mask in enumerate(EDGE_MASKS):
            rng = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            assert backend.sample_mask_int(mask, p, rng) == (
                REFERENCE.sample_mask_int(mask, p, ref)
            )
            assert rng.bit_generator.state == ref.bit_generator.state
        for seed, batch in enumerate(EDGE_BATCHES):
            rng = np.random.default_rng(100 + seed)
            ref = np.random.default_rng(100 + seed)
            assert backend.sample_masks_int(batch, p, rng) == (
                REFERENCE.sample_masks_int(batch, p, ref)
            )
            assert rng.bit_generator.state == ref.bit_generator.state
        rng = np.random.default_rng(7)
        ref = np.random.default_rng(7)
        want = int.from_bytes(
            np.packbits(ref.random(LINE_BITS) < p, bitorder="little").tobytes(),
            "little",
        )
        assert backend.draw_mask(rng, LINE_BITS, p) == want
        assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(mask_ints, st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_decode_matches_numpy_flag_expansion(self, name, stored, flags):
        """The int-table decode equals numpy's flag-expand XOR."""
        backend = backend_or_skip(name)
        flag_bytes = np.frombuffer(flags.to_bytes(8, "little"), np.uint8)
        xor = int.from_bytes(
            D._flag_expand_table()[flag_bytes].tobytes(), "little"
        )
        assert backend.decode_int(stored, flags) == stored ^ xor

    @pytest.mark.parametrize("mask", EDGE_MASKS + [
        (1 << 6) - 1, (1 << 7) - 1, 0b1010101 << 300,
        sum(1 << b for b in range(0, LINE_BITS, 7)),
    ])
    def test_bit_positions_sparse_and_dense(self, name, mask):
        """Empty, sparse and dense masks, up to all 512 cells."""
        backend = backend_or_skip(name)
        want = [i for i in range(LINE_BITS) if mask >> i & 1]
        assert backend.bit_positions_int(mask) == want

    @settings(max_examples=150, deadline=None)
    @given(seed_keys, fractions)
    def test_seeded_generation_matches_numpy(self, name, key, fraction):
        """The state plane's recipes: numpy's SeedSequence -> PCG64 stream,
        with numpy's entropy coercion (multi-word and zero-valued ints)."""
        backend = backend_or_skip(name)
        assert backend.seeded_words(key, 512) == numpy_words(key, 512)
        assert backend.seeded_words(key, 3) == numpy_words(key, 3)
        assert backend.seeded_mask(key, LINE_BITS, fraction) == (
            numpy_mask(key, LINE_BITS, fraction)
        )
        assert backend.seeded_mask(key, 37, fraction) == (
            numpy_mask(key, 37, fraction)
        )

    @settings(max_examples=150, deadline=None)
    @given(seed_keys)
    def test_seeded_rng_matches_numpy(self, name, key):
        """The lifetime seeding's generator starts in ``default_rng(key)``'s
        state and then draws numpy's stream (multi-word keys included)."""
        backend = backend_or_skip(name)
        ref = np.random.default_rng(key)
        rng = backend.seeded_rng(key)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.poisson(2.0) == ref.poisson(2.0)
        assert (rng.choice(LINE_BITS, size=4, replace=False).tolist()
                == ref.choice(LINE_BITS, size=4, replace=False).tolist())
        assert rng.integers(2) == ref.integers(2)
        # A re-seeded generator starts over, whatever was drawn from it.
        assert backend.seeded_rng(key).bit_generator.state == (
            np.random.default_rng(key).bit_generator.state
        )

    def test_seeded_generation_rejects_negative_keys(self, name):
        backend = backend_or_skip(name)
        with pytest.raises(ValueError):
            backend.seeded_words((1, -2), 4)
        with pytest.raises(ValueError):
            backend.seeded_mask((-1,), 8, 0.5)


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

    def sample_keep(self, *args):
        return self._call("sample_keep", *args)

    def din_encode(self, *args):
        return self._call("din_encode", *args)

    def draw_less_than(self, *args):
        return self._call("draw_less_than", *args)

    def bit_positions(self, *args):
        return self._call("bit_positions", *args)

    def seeded_words(self, *args):
        return self._call("seeded_words", *args)

    def seeded_less_than(self, *args):
        return self._call("seeded_less_than", *args)

    def seeded_state(self, *args):
        return self._call("seeded_state", *args)


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
        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            got = backend.sample_mask_int(mask, 0.4, fast_rng)
        # The native sampler failed before drawing, so the Python
        # reference draws the untouched stream: same bytes, same stream
        # position.
        assert got == REFERENCE.sample_mask_int(mask, 0.4, ref_rng)
        assert fast_rng.random() == ref_rng.random()
        assert backend.dead is True
        assert len(caught) == 1

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

    def test_batched_crash_falls_back_before_drawing(self):
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        values = [(1 << 200) - 1, 0, 0xDEADBEEF << 64]
        fast_rng = np.random.default_rng(17)
        ref_rng = np.random.default_rng(17)
        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            got = backend.sample_masks_int(values, 0.3, fast_rng)
        assert got == REFERENCE.sample_masks_int(values, 0.3, ref_rng)
        assert fast_rng.random() == ref_rng.random()
        assert backend.dead is True
        assert len(caught) == 1

    def test_flip_mask_crash_falls_back_before_drawing(self):
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        fast_rng = np.random.default_rng(23)
        ref_rng = np.random.default_rng(23)
        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            got = backend.draw_mask(fast_rng, LINE_BITS, 0.14)
        assert got == REFERENCE.draw_mask(ref_rng, LINE_BITS, 0.14)
        assert fast_rng.random() == ref_rng.random()
        assert backend.dead is True
        assert len(caught) == 1

    @pytest.mark.parametrize("method", ("seeded_words", "seeded_mask"))
    def test_seeded_crash_falls_back_to_numpy(self, method):
        """A dying seeded generator: one warning, a retired backend, and
        the numpy reference's bytes."""
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        key = (7, 2**32, 0, 2**100)
        args = (key, 512) if method == "seeded_words" else (key, LINE_BITS, 0.1)
        want = (numpy_words if method == "seeded_words" else numpy_mask)(*args)
        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            assert getattr(backend, method)(*args) == want
        assert len(caught) == 1
        assert "simulated native kernel crash" in str(caught[0].message)
        assert backend.dead is True
        # Retired: later calls ride the reference without re-warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert getattr(backend, method)(*args) == want

    def test_seeded_rng_crash_falls_back_to_numpy(self):
        backend = _fresh_compiled()
        backend._ops = _FlakyOps(backend._ops, fuse=0)
        key = (0xECB, 3, 2**33, 700)
        want = np.random.default_rng(key).bit_generator.state
        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            assert backend.seeded_rng(key).bit_generator.state == want
        assert len(caught) == 1
        assert backend.dead is True

    @pytest.mark.parametrize("mask", (-(1 << 300), (1 << 512) | 0xF0F0))
    def test_out_of_range_mask_raises_before_drawing(self, mask):
        """A mask outside [0, 2**512) fails the native int conversion:
        the call raises without drawing, the backend retires, and the
        reference's result comes back from the untouched stream."""
        backend = _fresh_compiled()
        rng = np.random.default_rng(31)
        before = rng.bit_generator.state
        with pytest.raises((OverflowError, ValueError)):
            backend._ops.sample_keep(mask, 0.4, rng.bit_generator.capsule)
        assert rng.bit_generator.state == before
        ref_rng = np.random.default_rng(31)
        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            got = backend.sample_mask_int(mask, 0.4, rng)
        assert got == REFERENCE.sample_mask_int(mask, 0.4, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert backend.dead is True
        assert len(caught) == 1

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


# -- compiled-backend build and load -----------------------------------------


class TestCompiledBuild:
    def test_stray_ctypes_library_is_skipped(self, tmp_path, monkeypatch):
        """A ctypes-era ``_kernels.so`` beside the package (a plain shared
        library with no module init) is skipped, and the cached build
        loads instead; a current module there is taken."""
        cc = compiled_backend._find_compiler()
        source = tmp_path / "ctypes_era.c"
        source.write_text("int sd_abi_version(void) { return 5; }\n")
        stray = tmp_path / "_kernels.so"
        built = cc is not None and subprocess.run(
            [cc, "-shared", "-fPIC", "-o", str(stray), str(source)],
            capture_output=True,
        ).returncode == 0
        if not built:
            pytest.skip("no working C compiler here")
        monkeypatch.setattr(compiled_backend, "_PACKAGE_DIR", tmp_path)
        reasons = []
        assert compiled_backend._prebuilt_library(reasons) is None
        assert len(reasons) == 1 and "_kernels.so" in reasons[0]
        backend = _fresh_compiled()
        assert backend.abi == compiled_backend._ABI_VERSION == 7
        assert backend.encode_stored_int(3, 5) == REFERENCE.encode_stored_int(3, 5)
        assert not backend.dead
        # A current module under the interpreter's own suffix is accepted.
        current = tmp_path / f"_kernels{compiled_backend.EXTENSION_SUFFIXES[0]}"
        shutil.copy(compiled_backend._build_library(), current)
        module = compiled_backend._prebuilt_library([])
        assert module is not None and module.__file__ == str(current)
        assert module.ABI == 7

    def test_missing_python_headers_fail_cleanly(self, tmp_path, monkeypatch):
        """No ``Python.h``: BackendUnavailable naming it, no compiler run,
        and ``compiled`` missing from the available backends."""
        def no_compile():
            raise AssertionError("the compiler was sought without Python.h")

        monkeypatch.setattr(compiled_backend, "_PACKAGE_DIR", tmp_path)
        monkeypatch.setattr(compiled_backend, "_python_include", lambda: tmp_path)
        monkeypatch.setattr(compiled_backend, "_find_compiler", no_compile)
        shutil.rmtree(envconfig.cache_dir() / "kernels", ignore_errors=True)
        kernels.reset()
        with pytest.raises(BackendUnavailable, match="Python.h"):
            kernels.get_backend("compiled")
        assert "compiled" not in kernels.available_backends()
