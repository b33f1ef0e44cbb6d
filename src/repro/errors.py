"""Exception hierarchy for the SD-PCM repro.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class EnvError(ConfigError, ValueError):
    """A ``REPRO_*`` environment variable holds a value it cannot take.

    The ``repro`` and runner entry points report it as one stderr line
    and exit status 2, as they do a bad flag.
    """


class AllocationError(ReproError):
    """The page allocator could not satisfy a request."""


class ECPExhaustedError(ReproError):
    """An ECP line ran out of correction entries for a hard error.

    Write-disturbance entries never raise this (they overflow gracefully into
    a correction write); only unrecoverable *hard* errors do.
    """


class DeviceError(ReproError):
    """An out-of-range device coordinate (bank/row/line/bit) was addressed."""


class TraceError(ReproError):
    """A trace record or trace stream is malformed."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent internal state."""


class FaultInjectionError(ReproError):
    """A fault plan could not be constructed or applied to the device model."""


class WorkerCrashError(ReproError):
    """A pool worker died (or its process pool broke) while simulating a cell.

    Raised to callers only after every retry round *and* the in-process
    serial fallback have failed; otherwise the crash is absorbed by the
    engine's failure-handling ladder and only counted in ``EngineStats``.
    """


class CellTimeoutError(ReproError):
    """A cell exceeded the per-cell wall-clock budget (``REPRO_CELL_TIMEOUT``)."""


class CacheError(ReproError):
    """The disk result cache failed; results are unaffected, only reuse is."""


class CacheWriteError(CacheError):
    """A cache write hit an environmental failure (disk full / permissions).

    Retrying the same write cannot succeed until the environment changes,
    so the background writer drops it (counted in the engine summary)
    instead of aborting the sweep that produced the result.
    """
