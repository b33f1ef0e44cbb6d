"""Sweep-as-a-service: a crash-safe async job daemon over the perf engine.

``repro serve`` runs a long-lived asyncio daemon that accepts cell jobs
from many concurrent clients over a local HTTP/JSON API and executes
them on the existing warm pool (:mod:`repro.perf`).  Where
:mod:`repro.resilience` made one *process* resilient, this package makes
the *jobs* durable and the engine safe from its clients:

- :mod:`~repro.service.journal` — every accepted job is appended to an
  fsync'd on-disk journal keyed by the same sha256 spec hashes as the
  result cache; a crashed or SIGKILLed daemon replays it on restart and
  re-enqueues interrupted jobs (results come back byte-identical —
  completed cells are already in the content-addressed cache).
- :mod:`~repro.service.admission` — bounded queue with load shedding:
  a full queue or an actively degraded engine (open breaker, pressure
  policy) sheds new submissions with a classified 429/503 carrying
  ``retryable`` from the :mod:`repro.resilience.taxonomy` and a
  ``Retry-After`` hint, so clients back off instead of hanging.
- :mod:`~repro.service.jobs` — the job state machine, request-layer
  spec construction, and :class:`~repro.service.jobs.ServiceStats`.
- :mod:`~repro.service.daemon` — the asyncio HTTP daemon itself:
  request-layer dedup (N clients asking for the same spec share one
  execution and one journal entry), per-job deadlines, graceful SIGTERM
  drain, and ``/healthz`` / ``/stats`` endpoints over the ``repro
  health`` supervision snapshot.
- :mod:`~repro.service.client` — a small stdlib HTTP client for tests,
  scripts, and the CI smoke.

The daemon never touches result semantics: each job runs through
:meth:`repro.perf.engine.CellRunner.run_cells`, so every execution path
(cold, cached, replayed-after-crash, degraded) returns byte-identical
results by the engine's existing contract.
"""

from __future__ import annotations

from .client import ServiceClient  # noqa: F401
from .daemon import ServiceDaemon  # noqa: F401
from .journal import JobJournal  # noqa: F401
