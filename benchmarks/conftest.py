"""Benchmark harness support.

Every benchmark regenerates one paper table/figure via the corresponding
``repro.experiments`` module, prints the rendered table (visible with
``pytest -s``), and archives it under ``benchmarks/out/`` so a full
``pytest benchmarks/ --benchmark-only`` run leaves the complete set of
reproduced tables on disk.

Each session simulates into its own empty result cache, never the user's
``~/.cache/repro``: a benchmark must not pass on results an older version
of the simulator left there.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.perf import engine

OUT_DIR = Path(os.environ.get("REPRO_BENCH_OUT", Path(__file__).parent / "out"))


@pytest.fixture(scope="session", autouse=True)
def _session_result_cache(tmp_path_factory):
    """Point the result cache at a fresh per-session directory.

    The session's benchmarks share it, so a cell one experiment simulated
    is a cache hit for the next, and the compiled kernel module is built
    into it once and reused by every benchmark.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        engine.reset()
        yield
        engine.reset()


@pytest.fixture
def record_result():
    """Print an ExperimentResult and archive its rendering."""

    def _record(name: str, result) -> None:
        text = result.render()
        print("\n" + text)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _record
