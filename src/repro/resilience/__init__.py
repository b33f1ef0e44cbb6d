"""Supervision layer for the simulation engine.

The engine, warm pool, result cache, and shm trace plane all report into
this package instead of handling their failures ad hoc:

- :mod:`~repro.resilience.taxonomy` — classify any exception into the
  unified ``category`` / ``retryable`` / ``degraded_mode`` taxonomy
  (:mod:`repro.errors` carries the attributes for library errors).
- :mod:`~repro.resilience.watchdog` — shared-memory heartbeat plane
  workers stamp per cell, plus the supervisor thread that reclaims hung
  rounds before the deadline timeout (``REPRO_HEARTBEAT_S``).
- :mod:`~repro.resilience.breaker` — circuit breakers around the three
  flaky dependencies (compiled kernel backend, disk cache, shm plane)
  that force the known-good degraded path after repeated failure.
- :mod:`~repro.resilience.pressure` — resource-pressure monitor (free
  disk, /dev/shm headroom, RSS vs soft budget) with graceful policy
  responses.
- :mod:`~repro.resilience.health` — the machine-readable snapshot behind
  ``repro health``.

Supervision changes *when* the engine's fallbacks fire, never *what*
results are: every degraded path (serial, python kernel, cache-off,
in-worker trace synthesis) is byte-identical by contract.

This module itself owns only the cross-cutting pieces the submodules
share: a bounded event log every transition is recorded into, and a
counter sink so ``EngineStats`` can mirror transitions without an import
cycle (``engine -> breaker -> engine``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

#: Bounded in-memory log of supervision transitions (breaker state
#: changes, watchdog stalls, pressure policy responses).  Surfaced by
#: ``repro health``; sized so a misbehaving host cannot grow it without
#: bound.
_EVENTS: deque = deque(maxlen=256)
_EVENTS_LOCK = threading.Lock()

_COUNTER_SINK: Optional[Callable[[str], None]] = None


def register_counter_sink(sink: Optional[Callable[[str], None]]) -> None:
    """Install ``sink(kind)`` to be called once per recorded event.

    ``repro.perf.engine`` registers a sink that maps event kinds onto
    ``EngineStats`` resilience counters; tests may replace it.
    """
    global _COUNTER_SINK
    _COUNTER_SINK = sink


def record_event(kind: str, detail: str = "") -> None:
    """Append a supervision transition to the event log (thread-safe)."""
    event = {"t": time.time(), "kind": kind, "detail": detail}
    with _EVENTS_LOCK:
        _EVENTS.append(event)
    sink = _COUNTER_SINK
    if sink is not None:
        try:
            sink(kind)
        except Exception:  # pragma: no cover - a broken sink must not mask
            pass  # the failure being recorded


def events() -> List[Dict[str, object]]:
    """A snapshot copy of the recorded events, oldest first."""
    with _EVENTS_LOCK:
        return list(_EVENTS)


def clear_events() -> None:
    with _EVENTS_LOCK:
        _EVENTS.clear()


def reset_all() -> None:
    """Reset every supervision singleton (breakers, pressure, watchdog,
    event log) — test isolation, called from ``perf.engine.reset()``."""
    from . import breaker, pressure, watchdog

    breaker.reset_all()
    pressure.PRESSURE.reset()
    watchdog.reset()
    clear_events()
