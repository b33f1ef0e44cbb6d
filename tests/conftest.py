"""Shared fixtures: small deterministic systems and workloads."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro import envconfig
from repro.pcm import kernels
from repro.perf import engine
from repro.config import (
    DisturbanceConfig,
    MemoryConfig,
    SchemeConfig,
    SystemConfig,
    TimingConfig,
)
from repro.traces.record import TraceArray
from repro.traces.workload import Workload, homogeneous_workload


@pytest.fixture(scope="session")
def _kernel_build(tmp_path_factory):
    """The compiled kernel module, built once for the whole session.

    Returns the build directory, or ``None`` when nothing was built (no
    C compiler or Python headers, or a prebuilt module next to the
    package).
    """
    root = tmp_path_factory.mktemp("kernel-build")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root))
        try:
            kernels.get_backend("compiled")
        except kernels.BackendUnavailable:
            return None
        finally:
            kernels.reset()
    build = root / "kernels"
    return build if build.is_dir() else None


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch, _kernel_build):
    """Point the perf engine's result cache at a per-test directory.

    Keeps the suite hermetic (no reads from or writes to the user's
    ~/.cache/repro) while still exercising the cache code paths.  The
    session's kernel build is copied in, so a test that needs the
    compiled backend loads it (about 1 ms) instead of compiling it.
    The directory lies outside ``tmp_path``, which tests own.
    """
    cache_dir = tmp_path_factory.mktemp("repro-cache")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    if _kernel_build is not None:
        shutil.copytree(_kernel_build, cache_dir / "kernels")
    engine.reset()
    yield
    engine.reset()


@pytest.fixture
def no_compiler(monkeypatch):
    """A host with no C toolchain: no compiler and no earlier build."""
    monkeypatch.setenv("REPRO_KERNEL_CC", "/bin/false")
    shutil.rmtree(envconfig.cache_dir() / "kernels", ignore_errors=True)
    kernels.reset()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def small_config(scheme: SchemeConfig | None = None, **kwargs) -> SystemConfig:
    """A 2-core config over the full-size memory (rows are lazy anyway)."""
    defaults = dict(
        cores=2,
        timing=TimingConfig(),
        memory=MemoryConfig(),
        disturbance=DisturbanceConfig(),
        scheme=scheme or SchemeConfig(),
        seed=7,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def make_trace(references) -> TraceArray:
    """A trace from ``(is_write, address, gap)`` tuples, one per reference."""
    is_write, address, gap = zip(*references) if references else ((),) * 3
    return TraceArray(np.array(is_write, dtype=bool),
                      np.array(address, dtype=np.int64),
                      np.array(gap, dtype=np.int64))


def same_trace(a: TraceArray, b: TraceArray) -> bool:
    """Whether two traces hold equal columns."""
    return all(np.array_equal(getattr(a, column), getattr(b, column))
               for column in ("is_write", "address", "gap"))


def small_workload(bench: str = "stream", cores: int = 2, length: int = 300,
                   seed: int = 7) -> Workload:
    return homogeneous_workload(bench, cores=cores, length=length, seed=seed)


@pytest.fixture
def config() -> SystemConfig:
    return small_config()


@pytest.fixture
def workload() -> Workload:
    return small_workload()
