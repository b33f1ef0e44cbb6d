"""Property-based equivalence: fast bit kernels vs the scalar references.

The int-domain and batched kernels in :mod:`repro.pcm.line` claim to be
bit-for-bit and RNG-draw-for-draw identical to the original
``unpackbits``-based implementations (kept as ``_scalar_*``).  These
tests check that claim on random masks, edge probabilities, and empty
candidate sets under fixed seeds.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LINE_BITS, LINE_WORDS, FaultConfig, SystemConfig
from repro.core import schemes
from repro.pcm import line as L
from repro.pcm.din import DINEncoder

# Random 512-bit masks as (8,) uint64 arrays; bias toward sparse masks
# (the common case: a handful of disturbed cells) plus dense extremes.
words = st.integers(min_value=0, max_value=(1 << 64) - 1)
masks = st.one_of(
    st.lists(
        st.integers(0, LINE_BITS - 1), unique=True, max_size=24
    ).map(L.mask_from_positions),
    st.lists(words, min_size=LINE_WORDS, max_size=LINE_WORDS).map(
        lambda ws: np.array(ws, dtype=L.WORD_DTYPE)
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


class TestCountKernels:
    @given(masks)
    def test_popcount_matches_scalar(self, mask):
        assert L.popcount(mask) == L._scalar_popcount(mask)

    @given(masks)
    def test_popcount_int_matches_scalar(self, mask):
        assert L.popcount(L.to_int(mask)) == L._scalar_popcount(mask)

    @given(masks)
    def test_bit_positions_matches_scalar(self, mask):
        assert L.bit_positions(mask) == L._scalar_bit_positions(mask)

    @given(masks)
    def test_bit_positions_int_matches_scalar(self, mask):
        assert L.bit_positions_int(L.to_int(mask)) == L._scalar_bit_positions(mask)

    @given(st.lists(masks, max_size=6))
    def test_popcount_rows_matches_scalar(self, rows):
        stacked = (
            np.stack(rows)
            if rows
            else np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)
        )
        expected = [L._scalar_popcount(row) for row in rows]
        assert L.popcount_rows(stacked).tolist() == expected


class TestSampleMask:
    @settings(max_examples=200)
    @given(masks, probabilities, seeds)
    def test_sample_mask_matches_scalar(self, mask, p, seed):
        fast = L.sample_mask(mask, p, np.random.default_rng(seed))
        ref = L._scalar_sample_mask(mask, p, np.random.default_rng(seed))
        assert np.array_equal(fast, ref)

    @settings(max_examples=200)
    @given(masks, probabilities, seeds)
    def test_sample_mask_int_matches_scalar(self, mask, p, seed):
        fast = L.sample_mask_int(L.to_int(mask), p, np.random.default_rng(seed))
        ref = L._scalar_sample_mask(mask, p, np.random.default_rng(seed))
        assert fast == L.to_int(ref)

    @given(masks, probabilities, seeds)
    def test_rng_stream_position_matches_scalar(self, mask, p, seed):
        """Both paths must consume the exact same number of draws."""
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        L.sample_mask(mask, p, fast_rng)
        L._scalar_sample_mask(mask, p, ref_rng)
        assert fast_rng.random() == ref_rng.random()

    def test_empty_candidates_draw_nothing(self):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state["state"]["state"]
        assert L.popcount(L.sample_mask(L.zero_line(), 0.5, rng)) == 0
        assert L.sample_mask_int(0, 0.5, rng) == 0
        assert rng.bit_generator.state["state"]["state"] == before

    def test_edge_probabilities_draw_nothing(self):
        mask = L.full_line()
        rng = np.random.default_rng(11)
        before = rng.bit_generator.state["state"]["state"]
        assert L.popcount(L.sample_mask(mask, 0.0, rng)) == 0
        assert np.array_equal(L.sample_mask(mask, 1.0, rng), mask)
        assert rng.bit_generator.state["state"]["state"] == before


class TestBatchedSamplers:
    """Batched kernels must equal sequential calls on one shared stream."""

    @settings(max_examples=150)
    @given(st.lists(masks, max_size=5), probabilities, seeds)
    def test_sample_masks_matches_sequential_scalar(self, rows, p, seed):
        stacked = (
            np.stack(rows)
            if rows
            else np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)
        )
        batched = L.sample_masks(stacked, p, np.random.default_rng(seed))
        seq_rng = np.random.default_rng(seed)
        for r, row in enumerate(rows):
            expected = L._scalar_sample_mask(row, p, seq_rng)
            assert np.array_equal(batched[r], expected)

    @settings(max_examples=150)
    @given(st.lists(masks, max_size=5), probabilities, seeds)
    def test_sample_masks_int_matches_sequential_scalar(self, rows, p, seed):
        values = [L.to_int(row) for row in rows]
        batched = L.sample_masks_int(values, p, np.random.default_rng(seed))
        seq_rng = np.random.default_rng(seed)
        for r, row in enumerate(rows):
            expected = L._scalar_sample_mask(row, p, seq_rng)
            assert batched[r] == L.to_int(expected)

    @given(st.lists(masks, max_size=5), seeds)
    def test_batched_stream_position_matches_sequential(self, rows, seed):
        stacked = (
            np.stack(rows)
            if rows
            else np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)
        )
        batched_rng = np.random.default_rng(seed)
        seq_rng = np.random.default_rng(seed)
        L.sample_masks(stacked, 0.5, batched_rng)
        for row in rows:
            L._scalar_sample_mask(row, 0.5, seq_rng)
        assert batched_rng.random() == seq_rng.random()

    def test_empty_batch(self):
        empty = np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)
        assert L.sample_masks(empty, 0.5, np.random.default_rng(0)).shape == (
            0,
            LINE_WORDS,
        )
        assert L.sample_masks_int([], 0.5, np.random.default_rng(0)) == []


class TestRowKernels:
    """Packed-row batch kernels vs their int/scalar references."""

    @given(st.lists(masks, max_size=6))
    def test_pack_unpack_round_trip(self, rows):
        values = [L.to_int(row) for row in rows]
        packed = L.pack_rows(values)
        assert packed.shape == (len(rows), LINE_WORDS)
        assert L.unpack_rows(packed) == values
        for r, row in enumerate(rows):
            assert np.array_equal(packed[r], row)

    def test_pack_empty(self):
        assert L.pack_rows([]).shape == (0, LINE_WORDS)
        assert L.unpack_rows(np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)) == []

    @settings(max_examples=150)
    @given(st.lists(masks, max_size=5), probabilities, seeds)
    def test_sample_masks_rows_matches_sequential_scalar(self, rows, p, seed):
        stacked = (
            np.stack(rows)
            if rows
            else np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)
        )
        batched = L.sample_masks_rows(stacked, p, np.random.default_rng(seed))
        seq_rng = np.random.default_rng(seed)
        for r, row in enumerate(rows):
            expected = L._scalar_sample_mask(row, p, seq_rng)
            assert np.array_equal(batched[r], expected)

    @given(st.lists(masks, max_size=5), seeds)
    def test_sample_masks_rows_stream_position(self, rows, seed):
        stacked = (
            np.stack(rows)
            if rows
            else np.zeros((0, LINE_WORDS), dtype=L.WORD_DTYPE)
        )
        batched_rng = np.random.default_rng(seed)
        seq_rng = np.random.default_rng(seed)
        L.sample_masks_rows(stacked, 0.5, batched_rng)
        for row in rows:
            L._scalar_sample_mask(row, 0.5, seq_rng)
        assert batched_rng.random() == seq_rng.random()

    @settings(max_examples=100)
    @given(st.lists(st.tuples(masks, masks), min_size=1, max_size=5))
    def test_din_rows_match_int_coders(self, pairs):
        encoder = DINEncoder()
        physical = np.stack([p for p, _ in pairs])
        data = np.stack([d for _, d in pairs])
        stored, flags = encoder.encode_stored_rows(physical, data)
        assert stored.shape == physical.shape and flags.shape == (len(pairs),)
        decoded = encoder.decode_rows(stored, flags)
        for r, (phys, raw) in enumerate(pairs):
            s_int, f_int = encoder.encode_stored_int(
                L.to_int(phys), L.to_int(raw)
            )
            assert L.to_int(stored[r]) == s_int
            assert int(flags[r]) == f_int
            assert L.to_int(decoded[r]) == encoder.decode_int(s_int, f_int)
            # The coding is a bijection row-wise too.
            assert L.to_int(decoded[r]) == L.to_int(raw)


# -- simulate_batch vs per-cell simulate_cell --------------------------------

_SCHEME_NAMES = ("baseline", "LazyC", "DIN", "LazyC+PreRead")
_BENCHES = ("mcf", "lbm")
_FAULT_PROFILES = (
    None,
    FaultConfig(enabled=True, seed=3, stuck_cells_per_line=0.5),
    FaultConfig(
        enabled=True, seed=5, stuck_cells_per_line=0.2, drift_flip_prob=0.02
    ),
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
        config = config.with_faults(faults)
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


class TestIntRoundTrip:
    @given(masks)
    def test_to_from_int(self, mask):
        assert np.array_equal(L.from_int(L.to_int(mask)), mask)

    @given(masks)
    def test_shift_kernels_match_array_forms(self, mask):
        value = L.to_int(mask)
        assert L.shift_left_int(value) == L.to_int(L.shift_left(mask))
        assert L.shift_right_int(value) == L.to_int(L.shift_right(mask))
        assert L.wordline_neighbours_int(value) == L.to_int(
            L.wordline_neighbours(mask)
        )
