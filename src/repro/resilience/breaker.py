"""Circuit breakers around the engine's three flaky dependencies.

Each breaker wraps one dependency with a known-good degraded path:

========  =============================  ==========================
breaker   guards                         degraded path when open
========  =============================  ==========================
kernel    compiled bit-kernel backend    pure-Python backend
cache     disk result cache              cache-off (drop writes)
shm       shared-memory trace plane      in-worker trace synthesis
========  =============================  ==========================

State machine (classic three-state):

- **closed** — normal operation; :data:`THRESHOLD` consecutive
  classified failures open it.
- **open** — callers are routed straight to the degraded path for
  :data:`BACKOFF_S` seconds (doubling per failed probe, capped).
- **half-open** — after the backoff, exactly one probe call is let
  through; success closes the breaker, failure reopens it.

Because every degraded path is byte-identical by contract, a breaker
changes *when* a fallback fires (and how often the failing dependency is
poked), never *what* a sweep returns.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from . import record_event

#: The engine's supervised dependencies, in display order.
BREAKER_NAMES = ("kernel", "cache", "shm")

#: Default consecutive classified failures before a breaker opens.
THRESHOLD = 5

#: Default seconds an open breaker waits before its half-open probe.
BACKOFF_S = 30.0

#: Backoff growth per failed half-open probe, and its cap (as a multiple
#: of the base backoff) so a persistently-broken dependency is still
#: re-probed on a bounded schedule.
BACKOFF_GROWTH = 2.0
MAX_BACKOFF_FACTOR = 8.0


class CircuitBreaker:
    """One breaker; thread-safe, with an injectable clock for tests."""

    def __init__(
        self,
        name: str,
        threshold: Optional[int] = None,
        backoff_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self._threshold = threshold
        self._backoff_s = backoff_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._backoff_factor = 1.0
        self._probe_live = False
        self.opens = 0
        self.closes = 0
        self.last_error: Optional[str] = None

    # -- configuration (module defaults read per call) ------------------------

    @property
    def threshold(self) -> int:
        if self._threshold is not None:
            return self._threshold
        return THRESHOLD

    def _base_backoff(self) -> float:
        if self._backoff_s is not None:
            return self._backoff_s
        return BACKOFF_S

    def _current_backoff(self) -> float:
        return self._base_backoff() * self._backoff_factor

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        """Raw state: ``closed`` / ``open`` / ``half_open`` (time-agnostic;
        an elapsed backoff transitions only when ``allow`` is called)."""
        with self._lock:
            return self._state

    def is_open(self) -> bool:
        """True while callers should take the degraded path *without*
        probing — open and still inside the backoff window."""
        with self._lock:
            return (
                self._state == "open"
                and self._clock() - self._opened_at < self._current_backoff()
            )

    def allow(self) -> bool:
        """Whether the caller may use the guarded dependency right now.

        Closed: always.  Open: no, until the backoff elapses — then the
        breaker goes half-open and this call is the single probe.
        Half-open with a probe already in flight: no.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self._current_backoff():
                    self._state = "half_open"
                    self._probe_live = True
                    record_event(
                        "breaker_half_open",
                        f"{self.name}: probing after backoff",
                    )
                    return True
                return False
            # half_open
            if self._probe_live:
                return False
            self._probe_live = True
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state in ("open", "half_open"):
                self._state = "closed"
                self._probe_live = False
                self._backoff_factor = 1.0
                self.closes += 1
                record_event("breaker_close", f"{self.name}: recovered")
            self._failures = 0

    def record_failure(self, exc: Optional[BaseException] = None) -> None:
        with self._lock:
            if exc is not None:
                self.last_error = f"{type(exc).__name__}: {exc}"
            if self._state == "half_open":
                self._probe_live = False
                self._backoff_factor = min(
                    self._backoff_factor * BACKOFF_GROWTH, MAX_BACKOFF_FACTOR
                )
                self._reopen("probe failed")
            elif self._state == "closed":
                self._failures += 1
                if self._failures >= self.threshold:
                    self._reopen(f"{self._failures} consecutive failures")
            # already open: the failure came from a caller that raced the
            # transition; it carries no new information.

    def abandon_probe(self) -> None:
        """Release an unresolved half-open probe (the caller ended up not
        exercising the dependency, so the probe proved nothing)."""
        with self._lock:
            if self._state == "half_open":
                self._probe_live = False

    def trip(self, reason: str = "tripped") -> None:
        """Force the breaker open (testing / ``repro health --trip``)."""
        with self._lock:
            self._reopen(reason)

    def _reopen(self, why: str) -> None:
        # caller holds self._lock
        self._state = "open"
        self._opened_at = self._clock()
        self.opens += 1
        detail = f"{self.name}: {why}"
        if self.last_error:
            detail += f" (last error: {self.last_error})"
        record_event("breaker_open", detail)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            open_for = (
                self._clock() - self._opened_at if self._state != "closed" else 0.0
            )
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "threshold": self.threshold,
                "opens": self.opens,
                "closes": self.closes,
                "backoff_s": self._current_backoff(),
                "open_for_s": round(open_for, 3),
                "last_error": self.last_error,
            }


_BREAKERS: Dict[str, CircuitBreaker] = {}
_REGISTRY_LOCK = threading.Lock()


def breaker(name: str) -> CircuitBreaker:
    """The process-wide breaker for ``name``, created lazily."""
    with _REGISTRY_LOCK:
        try:
            return _BREAKERS[name]
        except KeyError:
            _BREAKERS[name] = CircuitBreaker(name)
            return _BREAKERS[name]


def reset_all() -> None:
    with _REGISTRY_LOCK:
        _BREAKERS.clear()
