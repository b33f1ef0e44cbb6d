"""Machine-readable engine health snapshot (``repro health``).

One JSON document answering "is this process fit to run cells?": active
pressure degradations and the last pressure reading, the engine's
failure-ladder counters, cache condition, trace-plane condition, and the
recent pressure transitions.  The CLI prints it and exits 0 (``ok``) /
1 (``degraded``).

``degraded`` means a pressure policy is *currently* steering work onto a
fallback path.  Historical trouble that has recovered (past crashes,
timeouts, lifted policies) shows in the counters and events but does not
fail the check.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

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

    degradations = sorted(PRESSURE.degradations())
    return {
        "status": "degraded" if degradations else "ok",
        "time": time.time(),
        "degradations": degradations,
        "pressure": PRESSURE.snapshot(),
        "engine": {
            "worker_crashes": STATS.worker_crashes,
            "cell_timeouts": STATS.cell_timeouts,
            "retries": STATS.worker_retries,
            "serial_fallbacks": STATS.serial_fallback_cells,
            "pool_recycles": STATS.pool_recycles,
            "pressure_events": PRESSURE.transitions,
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
        "events": PRESSURE.events()[-EVENT_TAIL:],
    }


def healthy(snap: Optional[Dict[str, object]] = None) -> bool:
    if snap is None:
        snap = snapshot()
    return snap["status"] == "ok"
