"""Checkpoint resume across both execution modes.

The contract under test: a sweep killed mid-experiment and restarted
with ``--resume`` renders **byte-identical tables** no matter which
mode (``serial``: ``--jobs 1``; ``pool``: ``--jobs 2``) the interrupted
and resumed runs used.  The interrupt lands in the parent process via a
cache ``store_async`` that raises ``KeyboardInterrupt`` after N stores —
portable across both modes, and mid-experiment by construction (figure4
stores nine cells).
"""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.perf import cache as cache_mod
from repro.perf import engine

pytestmark = pytest.mark.chaos

#: ``--jobs`` per execution mode: one job runs every cold batch in-process,
#: two run multi-cell batches (and the sweep's prefetch) on the warm pool.
JOBS = {"serial": "1", "pool": "2"}

#: figure4 simulates nine cells; table1 is analytic (exercises the
#: checkpoint ledger with a zero-cell experiment in the same sweep).
SWEEP = ["figure4", "table1"]


def tables(out: str) -> str:
    """Rendered tables only: drop the bracketed status/timing lines."""
    return "\n".join(
        line for line in out.splitlines()
        if line.strip() and not line.strip().startswith("[")
    )


@pytest.fixture
def small_sweep_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "80")
    monkeypatch.setenv("REPRO_CORES", "2")


class _InterruptAfterStores:
    """Raise KeyboardInterrupt in the parent after the Nth cache store."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.calls = 0
        self.armed = True
        self.real = cache_mod.ResultCache.store_async

    def method(self):
        """A function suitable for patching onto the class (binds self)."""
        bomb = self

        def store_async(cache, key, result):
            bomb.real(cache, key, result)
            bomb.calls += 1
            if bomb.armed and bomb.calls == bomb.after:
                raise KeyboardInterrupt

        return store_async


@pytest.mark.parametrize("mode", ["serial", "pool"])
def test_kill_midexperiment_then_resume_byte_identical(
    mode, tmp_path, monkeypatch, capsys, small_sweep_env
):
    # Ground truth: a clean serial run in its own cache universe.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref-cache"))
    engine.reset()
    assert runner.main(["--jobs", "1"] + SWEEP) == 0
    want = tables(capsys.readouterr().out)

    # The chaos universe: same sweep, interrupted mid-figure4.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "chaos-cache"))
    engine.reset()
    bomb = _InterruptAfterStores(after=3)
    monkeypatch.setattr(cache_mod.ResultCache, "store_async", bomb.method())
    argv = ["--jobs", JOBS[mode]]
    assert runner.main(argv + SWEEP) == 130
    out = capsys.readouterr().out
    assert "interrupted after 0/2" in out
    assert bomb.calls >= 3

    # No experiment finished, but the stored cells must already be on
    # disk — that is what makes the resume cheap.
    manifest = runner.load_manifest()
    assert not runner.is_completed("figure4", manifest)

    # Resume with the same settings; tables must match the clean
    # serial reference byte for byte.
    bomb.armed = False
    engine.reset()
    assert runner.main(["--resume"] + argv + SWEEP) == 0
    resumed = capsys.readouterr().out
    assert tables(resumed) == want
    assert "cache hits" in resumed  # the interrupted run's cells reused


def test_resume_skips_completed_under_every_plan_mode(
    tmp_path, monkeypatch, capsys, small_sweep_env
):
    """A fully finished sweep resumes to pure skips in either mode."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    engine.reset()
    assert runner.main(["--jobs", "1"] + SWEEP) == 0
    capsys.readouterr()
    for argv in (["--jobs", JOBS["serial"]], ["--jobs", JOBS["pool"]]):
        engine.reset()
        assert runner.main(["--resume"] + argv + SWEEP) == 0
        out = capsys.readouterr().out
        assert "[figure4 already completed; skipped (--resume)]" in out
        assert "[table1 already completed; skipped (--resume)]" in out
