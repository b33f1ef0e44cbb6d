"""Property-based equivalence: fast bit kernels vs the scalar references.

The int-domain and batched kernels in :mod:`repro.pcm.line` claim to be
bit-for-bit and RNG-draw-for-draw identical to the original
``unpackbits``-based implementations (kept as ``_scalar_*``, over
``(8,)`` uint64 arrays).  These tests check that claim on random masks,
edge probabilities, and empty candidate sets under fixed seeds; the
``arr`` bridge hands each int mask to the references.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LINE_BITS, LINE_WORDS, FaultConfig, SystemConfig
from repro.core import schemes
from repro.pcm import line as L
from repro.pcm.din import DINEncoder

# Random 512-bit masks; bias toward sparse masks (the common case: a
# handful of disturbed cells) plus dense extremes.
masks = st.one_of(
    st.lists(
        st.integers(0, LINE_BITS - 1), unique=True, max_size=24
    ).map(lambda cells: sum(1 << p for p in cells)),
    st.integers(min_value=0, max_value=L.MASK_ALL),
)
probabilities = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.just(1e-12),
    st.just(1.0 - 1e-12),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def arr(value: int) -> np.ndarray:
    """The ``(8,)`` uint64 array the ``_scalar_*`` references take."""
    return np.frombuffer(value.to_bytes(LINE_BITS // 8, "little"), L.WORD_DTYPE)


def to_int(mask: np.ndarray) -> int:
    return int.from_bytes(mask.tobytes(), "little")


class TestCountKernels:
    @given(masks)
    def test_popcount_int_matches_scalar(self, mask):
        assert mask.bit_count() == L._scalar_popcount(arr(mask))

    @given(masks)
    def test_bit_positions_int_matches_scalar(self, mask):
        assert L.bit_positions_int(mask) == L._scalar_bit_positions(arr(mask))


class TestSampleMask:
    @settings(max_examples=200)
    @given(masks, probabilities, seeds)
    def test_sample_mask_int_matches_scalar(self, mask, p, seed):
        fast = L.sample_mask_int(mask, p, np.random.default_rng(seed))
        ref = L._scalar_sample_mask(arr(mask), p, np.random.default_rng(seed))
        assert fast == to_int(ref)

    @given(masks, probabilities, seeds)
    def test_rng_stream_position_matches_scalar(self, mask, p, seed):
        """Both paths must consume the exact same number of draws."""
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        L.sample_mask_int(mask, p, fast_rng)
        L._scalar_sample_mask(arr(mask), p, ref_rng)
        assert fast_rng.random() == ref_rng.random()

    def test_empty_candidates_draw_nothing(self):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state["state"]["state"]
        assert L.sample_mask_int(0, 0.5, rng) == 0
        assert rng.bit_generator.state["state"]["state"] == before

    def test_edge_probabilities_draw_nothing(self):
        rng = np.random.default_rng(11)
        before = rng.bit_generator.state["state"]["state"]
        assert L.sample_mask_int(L.MASK_ALL, 0.0, rng) == 0
        assert L.sample_mask_int(L.MASK_ALL, 1.0, rng) == L.MASK_ALL
        assert rng.bit_generator.state["state"]["state"] == before


class TestBatchedSamplers:
    """Batched kernels must equal sequential calls on one shared stream."""

    @settings(max_examples=150)
    @given(st.lists(masks, max_size=5), probabilities, seeds)
    def test_sample_masks_int_matches_sequential_scalar(self, rows, p, seed):
        batched = L.sample_masks_int(rows, p, np.random.default_rng(seed))
        seq_rng = np.random.default_rng(seed)
        for r, row in enumerate(rows):
            expected = L._scalar_sample_mask(arr(row), p, seq_rng)
            assert batched[r] == to_int(expected)

    @given(st.lists(masks, max_size=5), seeds)
    def test_batched_stream_position_matches_sequential(self, rows, seed):
        batched_rng = np.random.default_rng(seed)
        seq_rng = np.random.default_rng(seed)
        L.sample_masks_int(rows, 0.5, batched_rng)
        for row in rows:
            L._scalar_sample_mask(arr(row), 0.5, seq_rng)
        assert batched_rng.random() == seq_rng.random()

    def test_empty_batch(self):
        empty = L.pack_rows([])
        sampled = L.sample_masks_rows(empty, 0.5, np.random.default_rng(0))
        assert sampled.shape == (0, LINE_WORDS)
        assert L.sample_masks_int([], 0.5, np.random.default_rng(0)) == []


class TestRowKernels:
    """Packed-row batch kernels vs their int/scalar references."""

    @given(st.lists(masks, max_size=6))
    def test_pack_unpack_round_trip(self, rows):
        packed = L.pack_rows(rows)
        assert packed.shape == (len(rows), LINE_WORDS)
        assert L.unpack_rows(packed) == rows
        for r, row in enumerate(rows):
            assert np.array_equal(packed[r], arr(row))

    def test_pack_empty(self):
        assert L.pack_rows([]).shape == (0, LINE_WORDS)
        assert L.unpack_rows(np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)) == []

    @settings(max_examples=150)
    @given(st.lists(masks, max_size=5), probabilities, seeds)
    def test_sample_masks_rows_matches_sequential_scalar(self, rows, p, seed):
        stacked = L.pack_rows(rows)
        batched = L.sample_masks_rows(stacked, p, np.random.default_rng(seed))
        seq_rng = np.random.default_rng(seed)
        for r, row in enumerate(rows):
            expected = L._scalar_sample_mask(arr(row), p, seq_rng)
            assert np.array_equal(batched[r], expected)

    @given(st.lists(masks, max_size=5), seeds)
    def test_sample_masks_rows_stream_position(self, rows, seed):
        stacked = L.pack_rows(rows)
        batched_rng = np.random.default_rng(seed)
        seq_rng = np.random.default_rng(seed)
        L.sample_masks_rows(stacked, 0.5, batched_rng)
        for row in rows:
            L._scalar_sample_mask(arr(row), 0.5, seq_rng)
        assert batched_rng.random() == seq_rng.random()


# -- simulate_batch vs per-cell simulate_cell --------------------------------

_SCHEME_NAMES = ("baseline", "LazyC", "DIN", "LazyC+PreRead")
_BENCHES = ("mcf", "lbm")
_FAULT_PROFILES = (
    None,
    FaultConfig(seed=3, stuck_cells_per_line=0.5),
    FaultConfig(seed=5, stuck_cells_per_line=0.2, drift_flip_prob=0.02),
)

#: Per-cell reference results, memoized across hypothesis examples (specs
#: are deterministic, so the reference is computed once per distinct spec).
_REFERENCE: dict = {}


def _tiny_spec(bench: str, scheme_name: str, fault_index: int):
    from repro.perf.cellspec import CellSpec

    config = SystemConfig(cores=2, seed=1).with_scheme(
        schemes.by_name(scheme_name)
    )
    faults = _FAULT_PROFILES[fault_index]
    if faults is not None:
        config = dataclasses.replace(config, faults=faults)
    return CellSpec(bench=bench, length=48, config=config)


def _digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result)).hexdigest()


def _reference_digest(spec) -> str:
    from repro.perf.cellspec import cache_key, simulate_cell

    key = cache_key(spec)
    digest = _REFERENCE.get(key)
    if digest is None:
        digest = _digest(simulate_cell(spec))
        _REFERENCE[key] = digest
    return digest


cell_choices = st.tuples(
    st.sampled_from(_BENCHES),
    st.sampled_from(_SCHEME_NAMES),
    st.integers(0, len(_FAULT_PROFILES) - 1),
)


class TestSimulateBatchEquivalence:
    """The serial batch path must be byte-identical to per-cell simulation."""

    @settings(max_examples=10, deadline=None)
    @given(st.lists(cell_choices, min_size=1, max_size=5))
    def test_ragged_batches_match_per_cell(self, choices):
        from repro.perf.batch import simulate_batch

        specs = [_tiny_spec(*choice) for choice in choices]
        expected = [_reference_digest(spec) for spec in specs]
        seen = []
        results = simulate_batch(
            specs, on_result=lambda index, result: seen.append(index),
        )
        assert [_digest(result) for result in results] == expected
        assert seen == list(range(len(specs)))

    def test_batch_of_one(self):
        from repro.perf.batch import simulate_batch

        spec = _tiny_spec("mcf", "LazyC", 0)
        [result] = simulate_batch([spec])
        assert _digest(result) == _reference_digest(spec)

    def test_batch_with_one_faulted_cell(self):
        """A faulted cell changes none of its batch-mates' bytes."""
        from repro.perf.batch import simulate_batch

        specs = [
            _tiny_spec("mcf", "baseline", 0),
            _tiny_spec("mcf", "LazyC", 1),  # active fault plan
            _tiny_spec("mcf", "DIN", 0),
        ]
        results = simulate_batch(specs)
        assert [_digest(r) for r in results] == [
            _reference_digest(spec) for spec in specs
        ]

    def test_state_plane_cold_and_warm_identical(self):
        """Pooled state from earlier cells must not change a single byte."""
        from repro.pcm import stateplane
        from repro.perf.cellspec import simulate_cell

        spec = _tiny_spec("lbm", "LazyC+PreRead", 0)
        stateplane.PLANE.reset()
        cold = _digest(simulate_cell(spec))
        warm = _digest(simulate_cell(spec))  # pooled state, second touch
        stateplane.PLANE.reset()
        assert cold == warm


class TestAdjacency:
    @given(masks)
    def test_wordline_neighbours_match_per_cell(self, mask):
        """Neighbours are the cells one step away inside the same word."""
        expected = 0
        for cell in L.bit_positions_int(mask):
            for other in (cell - 1, cell + 1):
                if 0 <= other < LINE_BITS and other // 64 == cell // 64:
                    expected |= 1 << other
        assert L.wordline_neighbours_int(mask) == expected
