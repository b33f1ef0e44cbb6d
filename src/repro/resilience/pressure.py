"""Resource-pressure monitor: degrade gracefully before the OS does it.

Long sweeps die ugly deaths the failure ladder cannot see coming: the
cache fills the disk, the trace plane fills ``/dev/shm``, the worker set
grows past RAM and the OOM killer picks a victim.  This monitor checks
three budgets (preflight + every few seconds during ``run_cells``) and
responds with *policy*, not crashes:

=============================  =========================================
pressure                       response (and recovery)
=============================  =========================================
free disk under the cache dir  evict LRU cache entries, then pause cache
``< DISK_MIN_MB``              writes (resume at 2x the floor)
``/dev/shm`` headroom          suspend trace-plane publishing — workers
``< SHM_MIN_MB``               synthesize in-process (resume at 2x)
RSS ``> REPRO_MEM_BUDGET_MB``  force serial execution of cold batches and
                               skip prefetch (recover below 80% of budget)
=============================  =========================================

Every transition is recorded as a ``pressure_*`` event (mirrored into
``EngineStats.pressure_events`` and shown by ``repro health``).  All
responses are established byte-identical degraded paths — pressure
changes scheduling and caching, never results.
"""

from __future__ import annotations

import logging
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .. import envconfig
from . import record_event

_LOG = logging.getLogger("repro.resilience")

MB = 1024 * 1024

#: Minimum free disk under the cache dir, MiB (0 disables the check).
#: Below it the monitor evicts LRU cache entries, then pauses cache writes.
DISK_MIN_MB = 64

#: Minimum free ``/dev/shm`` headroom, MiB (0 disables the check).  Below
#: it the trace plane stops publishing and workers synthesize in-process.
SHM_MIN_MB = 16

#: Seconds between periodic checks (``maybe_check`` rate limit).
CHECK_INTERVAL_S = 5.0

#: Hysteresis: a paused/suspended resource resumes only once headroom
#: reaches this multiple of its floor, so the policy cannot flap.
RECOVERY_FACTOR = 2.0

#: RSS must drop below this fraction of the budget to recover.
MEM_RECOVERY_FRACTION = 0.8


def _existing_parent(path: Path) -> Path:
    """The closest existing ancestor of ``path`` (for disk_usage on a
    cache dir that has not been created yet)."""
    p = Path(path)
    while not p.exists():
        parent = p.parent
        if parent == p:
            break
        p = parent
    return p


def _rss_mb() -> Optional[float]:
    """Current resident set size in MiB (``None`` when unreadable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS; note it is a *peak*,
        # so this fallback can only over-report (degrade early, safely).
        return peak / MB if sys.platform == "darwin" else peak / 1024.0
    except Exception:
        return None


class PressureMonitor:
    """Process-wide monitor; one instance (``PRESSURE``) per process."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self.reset()

    def reset(self) -> None:
        self._last_check: Optional[float] = None
        #: Memory policy state: run every cold batch in-process.
        self.serial_forced = False
        #: Which degradations *this monitor* applied (so it only resumes
        #: what it paused, never a user-paused resource).
        self.cache_paused = False
        self.shm_suspended = False
        self.evicted_entries = 0
        self.last_reading: Optional[Dict[str, object]] = None

    # -- entry points --------------------------------------------------------

    def maybe_check(self, cache=None) -> None:
        """Rate-limited :meth:`check` (the engine calls this before every
        batch and every prefetch)."""
        now = self._clock()
        if (
            self._last_check is not None
            and now - self._last_check < CHECK_INTERVAL_S
        ):
            return
        self.check(cache)

    def check(self, cache=None) -> Dict[str, object]:
        """Run all three budget checks now and apply/lift policies."""
        self._last_check = self._clock()
        reading: Dict[str, object] = {}
        self._check_disk(cache, reading)
        self._check_shm(reading)
        self._check_rss(reading)
        self.last_reading = reading
        return reading

    # -- policies ------------------------------------------------------------

    def _check_disk(self, cache, reading: Dict[str, object]) -> None:
        if cache is None or not getattr(cache, "enabled", False):
            return
        min_mb = DISK_MIN_MB
        try:
            free_mb = shutil.disk_usage(_existing_parent(cache.root)).free / MB
        except OSError:
            return
        reading["cache_disk_free_mb"] = round(free_mb, 1)
        reading["cache_disk_min_mb"] = min_mb
        if not min_mb:
            return
        if free_mb < min_mb:
            # First try to free our own footprint, oldest entries first.
            need = int((min_mb * RECOVERY_FACTOR - free_mb) * MB)
            removed, freed = cache.evict_lru(need)
            if removed:
                self.evicted_entries += removed
                record_event(
                    "pressure_cache_evict",
                    f"disk low ({free_mb:.0f} MiB free): evicted "
                    f"{removed} LRU entries ({freed} bytes)",
                )
                try:
                    free_mb = (
                        shutil.disk_usage(_existing_parent(cache.root)).free / MB
                    )
                except OSError:
                    return
            if free_mb < min_mb and not cache.writes_paused:
                cache.pause_writes()
                self.cache_paused = True
                record_event(
                    "pressure_cache_pause",
                    f"{free_mb:.0f} MiB free < DISK_MIN_MB={min_mb}; "
                    "cache writes paused",
                )
        elif self.cache_paused and free_mb >= min_mb * RECOVERY_FACTOR:
            cache.resume_writes()
            self.cache_paused = False
            record_event(
                "pressure_cache_resume",
                f"{free_mb:.0f} MiB free; cache writes resumed",
            )

    def _check_shm(self, reading: Dict[str, object]) -> None:
        if not os.path.isdir("/dev/shm"):
            return
        min_mb = SHM_MIN_MB
        try:
            free_mb = shutil.disk_usage("/dev/shm").free / MB
        except OSError:
            return
        reading["shm_free_mb"] = round(free_mb, 1)
        reading["shm_min_mb"] = min_mb
        if not min_mb:
            return
        from ..traces import shm as traceshm

        if free_mb < min_mb and not traceshm.PLANE.suspended:
            traceshm.PLANE.suspend()
            self.shm_suspended = True
            record_event(
                "pressure_shm_suspend",
                f"/dev/shm {free_mb:.0f} MiB free < SHM_MIN_MB="
                f"{min_mb}; trace plane suspended (workers synthesize)",
            )
        elif self.shm_suspended and free_mb >= min_mb * RECOVERY_FACTOR:
            traceshm.PLANE.resume()
            self.shm_suspended = False
            record_event(
                "pressure_shm_resume",
                f"/dev/shm {free_mb:.0f} MiB free; trace plane resumed",
            )

    def _check_rss(self, reading: Dict[str, object]) -> None:
        budget = envconfig.mem_budget_mb()
        rss = _rss_mb()
        if rss is not None:
            reading["rss_mb"] = round(rss, 1)
        reading["mem_budget_mb"] = budget
        if not budget or rss is None:
            return
        if rss > budget and not self.serial_forced:
            self.serial_forced = True
            record_event(
                "pressure_mem_degrade",
                f"RSS {rss:.0f} MiB > REPRO_MEM_BUDGET_MB={budget}; "
                "forcing serial execution",
            )
        elif self.serial_forced and rss <= budget * MEM_RECOVERY_FRACTION:
            self.serial_forced = False
            record_event(
                "pressure_mem_recover",
                f"RSS {rss:.0f} MiB back under budget; "
                "parallel execution restored",
            )

    # -- consumers -----------------------------------------------------------

    def degradations(self) -> List[str]:
        out = []
        if self.cache_paused:
            out.append("cache-writes-paused")
        if self.shm_suspended:
            out.append("shm-suspended")
        if self.serial_forced:
            out.append("serial-forced")
        return out

    def snapshot(self) -> Dict[str, object]:
        return {
            "reading": self.last_reading,
            "degradations": self.degradations(),
            "evicted_entries": self.evicted_entries,
        }


#: The process-wide monitor.
PRESSURE = PressureMonitor()
