"""Admission control: protect the engine from its clients.

The daemon consults :class:`AdmissionController` before a submission is
journaled.  Three conditions shed load, each with an HTTP status, a
``Retry-After`` hint, and the ``category``/``retryable`` fields from the
unified failure taxonomy so clients classify a rejection exactly like
any other failure:

==============================  ======  =========  ==========
condition                       status  category   retryable
==============================  ======  =========  ==========
bounded queue full              429     resource   yes
engine actively degraded        503     resource   yes
(open breaker / pressure
policy, see ``repro health``)
daemon draining (SIGTERM)       503     execution  yes
==============================  ======  =========  ==========

Dedup hits are *not* admissions: a submission matching an in-flight job
joins it without touching the queue bound, so duplicated specs from N
clients can never shed each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..resilience.breaker import BREAKER_NAMES, breaker
from ..resilience.pressure import PRESSURE
from .jobs import ServiceStats

#: Default admission-queue bound before the service sheds load with 429.
QUEUE_MAX = 64

#: ``Retry-After`` hint on shed responses, seconds.
RETRY_AFTER_S = 2.0


def current_degradations() -> List[str]:
    """Active engine degradations, same vocabulary as ``repro health``:
    pressure policies plus ``breaker:<name>`` per open breaker."""
    out = list(PRESSURE.degradations())
    out += [
        f"breaker:{name}" for name in BREAKER_NAMES
        if breaker(name).state == "open"
    ]
    return sorted(out)


@dataclass(frozen=True)
class Shed:
    """A load-shedding decision, ready to serialize as the HTTP error."""

    status: int
    error: str
    category: str
    retry_after_s: float
    retryable: bool = True

    def payload(self) -> dict:
        return {
            "error": self.error,
            "category": self.category,
            "retryable": self.retryable,
            "retry_after_s": self.retry_after_s,
        }


class AdmissionController:
    """Decides accept-vs-shed for one daemon instance."""

    def __init__(self, queue_max: int = QUEUE_MAX,
                 retry_after_s: float = RETRY_AFTER_S,
                 stats: Optional[ServiceStats] = None) -> None:
        if queue_max < 1:
            raise ValueError(f"queue_max must be >= 1, got {queue_max}")
        self.queue_max = queue_max
        self.retry_after_s = retry_after_s
        self.stats = stats if stats is not None else ServiceStats()

    def check(self, queue_depth: int, draining: bool) -> Optional[Shed]:
        """``None`` to accept; a :class:`Shed` (and a ticked counter)
        otherwise.  Order matters: a draining daemon sheds everything,
        a degraded one sheds before the queue fills further."""
        if draining:
            self.stats.shed_draining += 1
            return Shed(
                status=503,
                error="service is draining (SIGTERM); "
                      "resubmit to the next instance",
                category="execution",
                retry_after_s=self.retry_after_s,
            )
        degradations = current_degradations()
        if degradations:
            self.stats.shed_degraded += 1
            return Shed(
                status=503,
                error="engine degraded: " + ", ".join(degradations),
                category="resource",
                retry_after_s=self.retry_after_s,
            )
        if queue_depth >= self.queue_max:
            self.stats.shed_queue_full += 1
            return Shed(
                status=429,
                error=f"admission queue full "
                      f"({queue_depth}/{self.queue_max} jobs)",
                category="resource",
                retry_after_s=self.retry_after_s,
            )
        return None
