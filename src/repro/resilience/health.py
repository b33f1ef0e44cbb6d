"""Machine-readable engine health snapshot (``repro health``).

One JSON document answering "is this process fit to run cells?":
breaker states, active pressure degradations, watchdog configuration and
stall count, the engine's resilience counters, cache condition,
trace-plane condition, and the recent supervision event log.  The CLI
prints it and exits 0 (``ok``) / 1 (``degraded``).

``degraded`` means a supervision policy is *currently* steering work
onto a fallback path: a breaker is open, or a pressure policy is active.
Historical trouble that has recovered (closed breakers, past watchdog
stalls) shows in the counters and events but does not fail the check.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .. import envconfig
from . import events
from .breaker import BREAKER_NAMES, breaker
from .pressure import PRESSURE

#: How many trailing events the snapshot carries.
EVENT_TAIL = 50


def snapshot(cache=None) -> Dict[str, object]:
    """The full health document (optionally against a specific cache)."""
    # Imported lazily: health is the one module allowed to look at every
    # layer, and pulling the engine in at import time would cycle.
    from ..perf import cache as cache_mod
    from ..perf.cache import ResultCache
    from ..perf.engine import STATS
    from ..traces.shm import PLANE

    if cache is None:
        cache = ResultCache()
    info = cache.info()

    breakers = {name: breaker(name).snapshot() for name in BREAKER_NAMES}
    open_breakers = sorted(
        name for name, snap in breakers.items() if snap["state"] == "open"
    )
    degradations = sorted(
        PRESSURE.degradations() + [f"breaker:{name}" for name in open_breakers]
    )
    return {
        "status": "degraded" if degradations else "ok",
        "time": time.time(),
        "degradations": degradations,
        "breakers": breakers,
        "pressure": PRESSURE.snapshot(),
        "watchdog": {
            "heartbeat_s": envconfig.heartbeat_s(),
            "stalls": STATS.watchdog_stalls,
        },
        "engine": {
            "worker_crashes": STATS.worker_crashes,
            "cell_timeouts": STATS.cell_timeouts,
            "retries": STATS.worker_retries,
            "serial_fallbacks": STATS.serial_fallback_cells,
            "pool_recycles": STATS.pool_recycles,
            "watchdog_stalls": STATS.watchdog_stalls,
            "breaker_opens": STATS.breaker_opens,
            "breaker_probes": STATS.breaker_probes,
            "breaker_closes": STATS.breaker_closes,
            "pressure_events": STATS.pressure_events,
        },
        "cache": {
            "root": str(info.root),
            "enabled": info.enabled,
            "entries": info.entries,
            "bytes": info.bytes,
            "writes_paused": cache.writes_paused,
            "write_drops": cache_mod.write_drops(),
            "corrupt_evictions": cache_mod.corrupt_evictions(),
        },
        "trace_plane": {
            "published": PLANE.published,
            "hits": PLANE.hits,
            "suspended": PLANE.suspended,
            "suppressed": PLANE.suppressed,
        },
        "events": events()[-EVENT_TAIL:],
    }


def healthy(snap: Optional[Dict[str, object]] = None) -> bool:
    if snap is None:
        snap = snapshot()
    return snap["status"] == "ok"
