"""The perf engine: cache keying, determinism across execution modes.

The headline guarantee: one cell produces an identical
:class:`SimulationResult` whether it is simulated serially, fanned out
over the process pool, or recalled from a warm disk cache.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import envconfig
from repro.core import schemes
from repro.experiments import common
from repro.perf.cache import ResultCache
from repro.perf.cellspec import CellSpec, cache_key, simulate_cell
from repro.perf.engine import STATS, CellRunner

SMALL = dict(length=80, cores=2)


def small_cell(bench="stream", scheme=None, **kwargs) -> CellSpec:
    params = {**SMALL, **kwargs}
    return common.cell(bench, scheme or schemes.baseline(), **params)


def payload(result) -> dict:
    """Full comparable dump of a SimulationResult."""
    return dataclasses.asdict(result)


class TestEnvParsing:
    def test_trace_length_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "12k")
        with pytest.raises(ValueError, match="REPRO_TRACE_LEN"):
            common.trace_length()

    def test_core_count_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "many")
        with pytest.raises(ValueError, match="REPRO_CORES"):
            common.core_count()

    def test_valid_values_still_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "321")
        monkeypatch.setenv("REPRO_CORES", "4")
        assert common.trace_length() == 321
        assert common.core_count() == 4

    def test_repro_jobs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "fast")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            envconfig.jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            envconfig.jobs()
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert envconfig.jobs() == 3


class TestCacheKey:
    def test_key_is_stable(self):
        assert cache_key(small_cell()) == cache_key(small_cell())

    def test_key_covers_every_knob(self):
        base = cache_key(small_cell())
        assert cache_key(small_cell(bench="mcf")) != base
        assert cache_key(small_cell(length=81)) != base
        assert cache_key(small_cell(seed=2)) != base
        assert cache_key(small_cell(scheme=schemes.lazyc())) != base
        assert cache_key(small_cell(write_queue_entries=16)) != base
        assert cache_key(small_cell(lifetime_fraction=0.5)) != base

    def test_schema_version_invalidates(self, monkeypatch):
        base = cache_key(small_cell())
        monkeypatch.setattr("repro.perf.cellspec.CACHE_SCHEMA_VERSION", 999)
        assert cache_key(small_cell()) != base


class TestCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        spec = small_cell()
        result = simulate_cell(spec)
        key = cache_key(spec)
        assert cache.load(key) is None
        cache.store(key, result)
        assert payload(cache.load(key)) == payload(result)
        info = cache.info()
        assert info.entries == 1 and info.bytes > 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        key = cache_key(small_cell())
        cache.root.mkdir(parents=True, exist_ok=True)
        (cache.root / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.load(key) is None
        assert cache.info().entries == 0  # the bad entry was dropped

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        spec = small_cell()
        cache.store(cache_key(spec), simulate_cell(spec))
        assert cache.clear() == 1
        assert cache.info().entries == 0

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        spec = small_cell()
        cache.store(cache_key(spec), simulate_cell(spec))
        assert cache.load(cache_key(spec)) is None
        assert not any(tmp_path.iterdir())

    def test_env_toggle(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert not ResultCache().enabled
        monkeypatch.setenv("REPRO_CACHE", "1")
        cache = ResultCache()
        assert cache.enabled and cache.root == tmp_path


class TestDeterminism:
    def test_serial_pool_and_cache_agree(self, tmp_path):
        """The acceptance property: identical payloads from all three paths."""
        specs = [small_cell("stream"), small_cell("mcf")]

        serial = CellRunner(
            jobs=1, cache=ResultCache(tmp_path / "serial", enabled=True)
        ).run_cells(specs)

        pooled = CellRunner(
            jobs=2, cache=ResultCache(tmp_path / "pool", enabled=True)
        ).run_cells(specs)

        warm_runner = CellRunner(
            jobs=1, cache=ResultCache(tmp_path / "serial", enabled=True)
        )
        before = STATS.simulated
        warm = warm_runner.run_cells(specs)
        assert STATS.simulated == before  # zero new simulations

        for s, p, w in zip(serial, pooled, warm):
            assert payload(s) == payload(p) == payload(w)

    def test_batch_order_matches_submission(self, tmp_path):
        runner = CellRunner(jobs=1, cache=ResultCache(tmp_path, enabled=True))
        a, b = small_cell("stream"), small_cell("mcf")
        forward = runner.run_cells([a, b])
        backward = runner.run_cells([b, a])
        assert payload(forward[0]) == payload(backward[1])
        assert payload(forward[1]) == payload(backward[0])

    def test_duplicates_simulated_once(self, tmp_path):
        runner = CellRunner(jobs=1, cache=ResultCache(tmp_path, enabled=True))
        spec = small_cell()
        before_sim, before_dup = STATS.simulated, STATS.deduplicated
        first, second = runner.run_cells([spec, spec])
        assert STATS.simulated == before_sim + 1
        assert STATS.deduplicated == before_dup + 1
        assert payload(first) == payload(second)

    def test_run_helper_hits_cache(self):
        """common.run_cells goes through the engine, so a repeat is a
        cache hit."""
        spec = common.cell("stream", schemes.baseline(),
                           length=SMALL["length"], cores=SMALL["cores"])
        [first] = common.run_cells([spec])
        before = STATS.simulated
        [again] = common.run_cells([spec])
        assert STATS.simulated == before
        assert payload(first) == payload(again)
