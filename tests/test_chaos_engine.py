"""Chaos tests: the engine's failure ladder and the cache's self-healing.

Worker-side failures are injected by monkeypatching
:func:`repro.perf.engine.simulate_cell` in the parent — pool workers are
fork-started on Linux, so they inherit the patch — with wrappers that
misbehave only when ``os.getpid()`` differs from the test process.  That
way the pool rounds fail while the serial fallback (which runs in the
parent) succeeds, letting every test assert the recovered results are
byte-identical to a clean run.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time

import pytest

from repro import envconfig
from repro.experiments import common, runner
from repro.core import schemes
from repro.perf import cache as cache_mod
from repro.perf import engine
from repro.perf.cache import ResultCache
from repro.perf.cellspec import cache_key
from repro.perf.engine import STATS, CellRunner

pytestmark = pytest.mark.chaos

SMALL = dict(length=80, cores=2)
MAIN_PID = os.getpid()
REAL_SIMULATE = engine.simulate_cell


def small_cell(bench="stream", scheme=None, **kwargs):
    params = {**SMALL, **kwargs}
    return common.cell(bench, scheme or schemes.baseline(), **params)


def payload(result) -> dict:
    return dataclasses.asdict(result)


def crash_in_worker(spec):
    """Raise in pool workers, behave in the parent (serial fallback)."""
    if os.getpid() != MAIN_PID:
        raise RuntimeError("injected worker crash")
    return REAL_SIMULATE(spec)


def die_in_worker(spec):
    """Kill the worker process outright -> BrokenProcessPool."""
    if os.getpid() != MAIN_PID:
        os._exit(17)
    return REAL_SIMULATE(spec)


def hang_in_worker(spec):
    """Exceed any reasonable per-cell wall-clock budget."""
    if os.getpid() != MAIN_PID:
        time.sleep(60)
    return REAL_SIMULATE(spec)


def always_broken(spec):
    """A deterministic bug: fails in workers AND in the parent."""
    raise ValueError("injected deterministic bug")


@pytest.fixture
def clean_results(tmp_path):
    """Ground-truth payloads for the standard two-spec batch."""
    specs = [small_cell("stream"), small_cell("mcf")]
    runner_ = CellRunner(jobs=1, cache=ResultCache(tmp_path / "clean",
                                                   enabled=True))
    return specs, [payload(r) for r in runner_.run_cells(specs)]


class TestFailureLadder:
    def test_worker_exception_retries_then_serial_fallback(
        self, tmp_path, monkeypatch, clean_results
    ):
        specs, expected = clean_results
        monkeypatch.setattr(engine, "simulate_cell", crash_in_worker)
        chaos = CellRunner(jobs=2, cache=ResultCache(tmp_path / "chaos",
                                                     enabled=True),
                           retries=2, backoff=0.0)
        results = chaos.run_cells(specs)
        assert [payload(r) for r in results] == expected
        # 3 rounds x 2 cells crash; rounds 2 and 3 are retries.
        assert STATS.worker_crashes == 6
        assert STATS.worker_retries == 4
        assert STATS.serial_fallback_cells == 2
        assert STATS.cell_timeouts == 0
        assert "resilience:" in STATS.summary()

    def test_worker_death_breaks_pool_then_recovers(
        self, tmp_path, monkeypatch, clean_results
    ):
        specs, expected = clean_results
        monkeypatch.setattr(engine, "simulate_cell", die_in_worker)
        chaos = CellRunner(jobs=2, cache=ResultCache(tmp_path / "chaos",
                                                     enabled=True),
                           retries=1, backoff=0.0)
        results = chaos.run_cells(specs)
        assert [payload(r) for r in results] == expected
        assert STATS.worker_crashes >= 2  # BrokenProcessPool fails the batch
        assert STATS.serial_fallback_cells == 2

    def test_hung_worker_times_out_then_recovers(
        self, tmp_path, monkeypatch, clean_results
    ):
        specs, expected = clean_results
        monkeypatch.setattr(engine, "simulate_cell", hang_in_worker)
        chaos = CellRunner(jobs=2, cache=ResultCache(tmp_path / "chaos",
                                                     enabled=True),
                           retries=0, cell_timeout=1.0, backoff=0.0)
        start = time.monotonic()
        results = chaos.run_cells(specs)
        assert time.monotonic() - start < 30  # did not wait out the hang
        assert [payload(r) for r in results] == expected
        assert STATS.cell_timeouts == 2
        assert STATS.serial_fallback_cells == 2

    def test_deterministic_bug_surfaces_as_original_exception(
        self, tmp_path, monkeypatch
    ):
        specs = [small_cell("stream"), small_cell("mcf")]
        monkeypatch.setattr(engine, "simulate_cell", always_broken)
        chaos = CellRunner(jobs=2, cache=ResultCache(tmp_path, enabled=True),
                           retries=0, backoff=0.0)
        with pytest.raises(ValueError, match="injected deterministic bug"):
            chaos.run_cells(specs)
        assert STATS.serial_fallback_cells == 2  # the ladder was walked

    def test_clean_pool_run_touches_no_resilience_counters(self, tmp_path):
        specs = [small_cell("stream"), small_cell("mcf")]
        CellRunner(jobs=2, cache=ResultCache(tmp_path, enabled=True),
                   retries=2).run_cells(specs)
        assert STATS.worker_crashes == 0
        assert STATS.cell_timeouts == 0
        assert STATS.worker_retries == 0
        assert STATS.serial_fallback_cells == 0
        assert "resilience" not in STATS.summary()


class TestEnvKnobs:
    def test_repro_cell_timeout_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
        assert envconfig.cell_timeout() is None
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
        assert envconfig.cell_timeout() is None  # 0 disables
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert envconfig.cell_timeout() == 2.5
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            envconfig.cell_timeout()


class TestCorruptCache:
    def entry(self, cache: ResultCache, key: str):
        cache.root.mkdir(parents=True, exist_ok=True)
        return cache.root / f"{key}.pkl"

    def test_truncated_pickle_evicted(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        spec = small_cell()
        key = cache_key(spec)
        data = pickle.dumps(REAL_SIMULATE(spec))
        self.entry(cache, key).write_bytes(data[: len(data) // 2])
        assert cache.load(key) is None
        assert not self.entry(cache, key).exists()  # evicted, not re-missed
        assert cache_mod.corrupt_evictions() == 1

    def test_wrong_type_payload_evicted(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        key = cache_key(small_cell())
        self.entry(cache, key).write_bytes(
            pickle.dumps({"not": "a SimulationResult"})
        )
        assert cache.load(key) is None
        assert not self.entry(cache, key).exists()
        assert cache_mod.corrupt_evictions() == 1
        assert "0 write drops, 1 corrupt evictions" in STATS.summary()

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        key = cache_key(small_cell())
        self.entry(cache, key).mkdir()  # a directory where a pickle should be
        assert cache.load(key) is None  # miss, does not raise
        assert cache_mod.corrupt_evictions() == 1

    def test_memory_pressure_propagates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, enabled=True)
        spec = small_cell()
        key = cache_key(spec)
        cache.store(key, REAL_SIMULATE(spec))
        monkeypatch.setattr(pickle, "load",
                            lambda fh: (_ for _ in ()).throw(MemoryError()))
        with pytest.raises(MemoryError):
            cache.load(key)
        assert self.entry(cache, key).exists()  # the good entry survived

    def test_eviction_then_store_heals(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        spec = small_cell()
        key = cache_key(spec)
        self.entry(cache, key).write_bytes(b"garbage")
        assert cache.load(key) is None
        result = REAL_SIMULATE(spec)
        cache.store(key, result)
        assert payload(cache.load(key)) == payload(result)

    def test_clear_counts_only_deletions(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        for bench in ("stream", "mcf"):
            spec = small_cell(bench)
            cache.store(cache_key(spec), REAL_SIMULATE(spec))
        assert cache.clear() == 2
        assert cache.clear() == 0  # nothing left; nothing overcounted


class TestCheckpointResume:
    def test_resume_skips_completed(self, capsys):
        assert runner.main(["table1"]) == 0
        capsys.readouterr()
        assert runner.main(["--resume", "table1", "capacity"]) == 0
        out = capsys.readouterr().out
        assert "[table1 already completed; skipped (--resume)]" in out
        assert "capacity finished" in out

    def test_fresh_run_resets_the_ledger(self, capsys):
        assert runner.main(["table1"]) == 0
        assert runner.main(["capacity"]) == 0  # fresh run, no --resume
        capsys.readouterr()
        assert runner.main(["--resume", "table1"]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out  # table1's checkpoint was wiped

    def test_stamp_mismatch_invalidates_checkpoint(self, monkeypatch):
        assert runner.main(["table1"]) == 0
        manifest = runner.load_manifest()
        assert runner.is_completed("table1", manifest)
        monkeypatch.setenv("REPRO_TRACE_LEN", "999")
        assert not runner.is_completed("table1", manifest)

    @staticmethod
    def _boom():
        raise KeyboardInterrupt

    def test_interrupt_checkpoints_finished_work(self, capsys, monkeypatch):
        monkeypatch.setitem(runner.EXPERIMENTS, "boom", self._boom)
        # Serial sweep (no planning pass): table1 finishes before boom's
        # interrupt.
        argv = ["--jobs", "1", "table1", "boom", "capacity"]
        assert runner.main(argv) == 130
        out = capsys.readouterr().out
        assert "interrupted after 1/3" in out
        assert "--resume" in out
        manifest = runner.load_manifest()
        assert runner.is_completed("table1", manifest)
        assert not runner.is_completed("boom", manifest)
        assert not runner.is_completed("capacity", manifest)

    def test_interrupt_during_planning_checkpoints_nothing(
        self, capsys, monkeypatch
    ):
        """A pipelined sweep calls every experiment in its planning pass
        before the main loop, so an interrupt there lands before any
        experiment finished: nothing is checkpointed, and the message
        says so."""
        monkeypatch.setitem(runner.EXPERIMENTS, "boom", self._boom)
        argv = ["--jobs", "2", "table1", "boom", "capacity"]
        assert runner.main(argv) == 130
        out = capsys.readouterr().out
        assert "interrupted after 0/3" in out
        assert "--resume" in out
        assert runner.load_manifest() == {}

    def test_torn_manifest_is_tolerated(self):
        path = runner.manifest_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"table1": {"trace_len"')  # torn mid-write
        assert runner.load_manifest() == {}
        assert runner.main(["--resume", "table1"]) == 0  # just re-runs
