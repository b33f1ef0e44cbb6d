"""Validated parsing of every ``REPRO_*`` environment knob.

One module owns the environment surface so every consumer reports
errors the same way: ``<NAME> must be <shape>, got <value!r>``.  The
accessors re-read the environment on every call (cheap), which keeps
tests that monkeypatch ``os.environ`` honest without any cache
invalidation protocol.

Knobs parsed here — the whole ``REPRO_*`` surface.  Tuning constants
live in their modules (``perf.engine.RETRIES``, ``perf.engine.BACKOFF_S``,
...):

========================  ======================================================
``REPRO_JOBS``            worker processes for cold cells (int >= 1; CPU count)
``REPRO_TRACE_LEN``       per-core trace length (int >= 1; 1200)
``REPRO_CORES``           simulated core count (int >= 1; 8)
``REPRO_CACHE``           ``0`` disables the disk result cache (on)
``REPRO_CACHE_DIR``       result-cache directory (``~/.cache/repro``)
``REPRO_KERNEL_BACKEND``  bit-kernel backend: ``auto``/``python``/``numpy``/
                          ``compiled`` (auto)
``REPRO_KERNEL_CC``       C compiler for the compiled kernel backend (PATH
                          search)
``REPRO_CELL_TIMEOUT``    per-cell wall-clock budget, seconds (finite float,
                          0 to ``threading.TIMEOUT_MAX``; off)
========================  ======================================================
"""

from __future__ import annotations

import math
import os
import threading
from pathlib import Path
from typing import Optional

from .errors import EnvError


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
) -> int:
    """``name`` as an int, or ``default`` when unset.

    Raises :class:`~repro.errors.EnvError`, a ``ValueError`` always
    naming the variable, on garbage or on values below ``minimum``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EnvError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise EnvError(f"{name} must be >= {minimum}, got {value}")
    return value


def env_float(
    name: str,
    default: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> float:
    """``name`` as a finite float, or ``default`` when unset (same error
    style; ``inf`` and ``nan`` are rejected)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise EnvError(
            f"{name} must be a number of seconds, got {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise EnvError(f"{name} must be a finite number, got {raw!r}")
    if minimum is not None and value < minimum:
        raise EnvError(f"{name} must be >= {minimum:g}, got {value:g}")
    if maximum is not None and value > maximum:
        raise EnvError(f"{name} must be <= {maximum:g}, got {value:g}")
    return value


def env_flag(name: str, default: bool) -> bool:
    """``name`` as an on/off flag: ``"0"`` is off, anything else is on."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw != "0"


# -- named accessors ---------------------------------------------------------


def jobs() -> int:
    """Worker count from ``REPRO_JOBS`` or the machine's CPU count."""
    if "REPRO_JOBS" in os.environ:
        return env_int("REPRO_JOBS", 1, minimum=1)
    return os.cpu_count() or 1


def cell_timeout() -> Optional[float]:
    """Per-cell wall-clock budget in seconds (``REPRO_CELL_TIMEOUT``).

    Unset or ``0`` disables the timeout (the default: a cold cell's run
    time scales with ``REPRO_TRACE_LEN``, so no universal bound exists).
    The engine waits on pool futures for up to this long, so the value
    must be one a wait can take (``threading.TIMEOUT_MAX``).
    """
    return env_float(
        "REPRO_CELL_TIMEOUT", 0.0, minimum=0.0, maximum=threading.TIMEOUT_MAX
    ) or None


def trace_length(default: int = 1200) -> int:
    """Per-core trace length, overridable via ``REPRO_TRACE_LEN``.

    At least 1: the experiments divide CPIs, and an empty trace retires
    no instruction (its CPI is 0).
    """
    return env_int("REPRO_TRACE_LEN", default, minimum=1)


def core_count(default: int = 8) -> int:
    """Core count, overridable via ``REPRO_CORES``."""
    return env_int("REPRO_CORES", default, minimum=1)


def cache_enabled() -> bool:
    """Whether the disk result cache is on (``REPRO_CACHE`` != ``0``)."""
    return env_flag("REPRO_CACHE", True)


def cache_dir() -> Path:
    """Result-cache directory (``REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


#: Legal values for ``REPRO_KERNEL_BACKEND`` / ``--kernel-backend``:
#: ``auto`` plus the registry names in ``repro.pcm.kernels.BACKEND_NAMES``
#: (kept as a literal so this module stays import-light; a registry test
#: pins the two tuples against each other).
KERNEL_BACKENDS = ("auto", "python", "numpy", "compiled")


def kernel_backend() -> str:
    """Bit-kernel backend selection (``REPRO_KERNEL_BACKEND``, default ``auto``).

    ``auto`` runs ``compiled`` when it builds on this host and
    ``python`` otherwise; ``python``, ``numpy``, and ``compiled``
    force that backend (forcing ``compiled`` on a host where it cannot
    build is an error rather than a silent degrade).
    """
    raw = os.environ.get("REPRO_KERNEL_BACKEND")
    if raw is None:
        return "auto"
    value = raw.strip().lower()
    if value not in KERNEL_BACKENDS:
        raise EnvError(
            f"REPRO_KERNEL_BACKEND must be one of {'/'.join(KERNEL_BACKENDS)}, "
            f"got {raw!r}"
        )
    return value


def kernel_cc() -> Optional[str]:
    """C compiler override for the compiled backend (``REPRO_KERNEL_CC``).

    Unset means "search PATH for cc/gcc/clang"; a set value is used
    verbatim (pointing it at a non-compiler is the supported way to
    simulate a host with no toolchain).
    """
    raw = os.environ.get("REPRO_KERNEL_CC")
    if raw is None or not raw.strip():
        return None
    return raw.strip()
