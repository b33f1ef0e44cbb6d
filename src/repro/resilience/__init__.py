"""Supervision layer for the simulation engine.

The engine's failure ladder (:mod:`repro.perf.engine`: pool -> retries
-> serial fallback, with the ``REPRO_CELL_TIMEOUT`` deadline) handles a
cell that crashes or hangs.  This package adds what the ladder cannot
see coming:

- :mod:`~repro.resilience.pressure` — resource-pressure monitor (free
  disk, /dev/shm headroom, RSS vs soft budget) with graceful policy
  responses, and the log of every transition it made.
- :mod:`~repro.resilience.health` — the machine-readable snapshot behind
  ``repro health``.

Supervision changes *when* the engine's fallbacks fire, never *what*
results are: every degraded path (serial, python kernel, cache-off,
in-worker trace synthesis) is byte-identical by contract.
"""
