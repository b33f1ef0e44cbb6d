"""The sweep-service daemon: asyncio HTTP front, warm-pool engine back.

``repro serve`` runs one :class:`ServiceDaemon`.  The asyncio event loop
owns the HTTP surface, admission, dedup, and the journal's non-terminal
transitions; one daemonized executor thread runs jobs through a single
long-lived :class:`~repro.perf.engine.CellRunner`, so the warm pool,
trace plane, state plane, and result cache all persist across
jobs (the whole point of being a daemon).

HTTP/JSON API (HTTP/1.1, ``Connection: close``):

- ``POST /jobs`` — submit ``{"bench", "length", "scheme", "cores",
  "seed"}`` (+ optional ``deadline_s``, ``wait``).  202 with the job
  document when queued, 200 immediately for a dedup hit on a finished
  job, 400 on malformed specs, 429/503 when shed (see
  :mod:`~repro.service.admission`).  ``"wait": true`` blocks the
  response until the job is terminal.
- ``GET /jobs/<key>`` — the job document (404 when unknown).
- ``GET /healthz`` — the ``repro health`` supervision snapshot plus a
  ``service`` section; 200 when ``ok``, 503 when degraded or draining.
- ``GET /stats`` — service + engine counters.

Crash safety: accepted and running transitions are fsync'd to the
journal *before* they are observable, so a SIGKILL at any point leaves
the journal no more optimistic than reality.  On restart the journal is
replayed: interrupted jobs re-enqueue (their finished cells are cache
hits, so replay costs only the torn-off tail), finished jobs keep
serving their recorded results.  SIGTERM drains: new work is shed,
in-flight jobs get ``drain_s`` to finish, the cache writer is flushed
and stopped, the journal compacted, and the engine torn down (warm pool,
shm segments) before exit 0.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import os
import queue as thread_queue
import signal
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from .. import envconfig, resilience
from ..errors import ReproError
from ..perf import engine
from ..resilience import taxonomy
from .admission import QUEUE_MAX, AdmissionController
from .jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    ServiceStats,
    result_digest,
    validate_params,
)
from .journal import JobJournal

_LOG = logging.getLogger("repro.service")

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: Seconds allowed for a client to present its request head + body.
_REQUEST_TIMEOUT_S = 30.0

#: Default bind address.  The protocol is unauthenticated, so the default
#: is loopback only; bind elsewhere deliberately.
HOST = "127.0.0.1"

#: Default TCP port (0 asks the OS for an ephemeral one).
PORT = 7733

#: Default SIGTERM drain deadline, seconds: in-flight jobs get this long
#: to finish before the daemon exits and leaves them journaled for the
#: next start's replay.
DRAIN_S = 30.0


def _run_spec(runner: "engine.CellRunner", spec):
    """Execute one spec on the shared runner (module-level so chaos
    tests can monkeypatch execution without touching the daemon)."""
    return runner.run_cells([spec])[0]


class ServiceDaemon:
    """One daemon instance; construct then :meth:`serve` (blocking)."""

    def __init__(
        self,
        host: str = HOST,
        port: int = PORT,
        service_dir: Optional[os.PathLike] = None,
        queue_max: int = QUEUE_MAX,
        drain_s: float = DRAIN_S,
        deadline_s: Optional[float] = None,
        jobs: Optional[int] = None,
        portfile: Optional[os.PathLike] = None,
    ) -> None:
        self.host = host
        self.port = port
        #: Job journal and portfile directory (default ``<cache dir>/service``).
        self.service_dir = (
            Path(service_dir) if service_dir is not None
            else envconfig.cache_dir() / "service"
        )
        self.drain_s = drain_s
        # No deadline, or a non-positive one, disables the queue TTL.
        self.default_deadline_s = (
            deadline_s if deadline_s is not None and deadline_s > 0 else None
        )
        self.jobs_arg = jobs
        self.portfile = Path(portfile) if portfile is not None else None
        self.stats = ServiceStats()
        self.admission = AdmissionController(
            queue_max=queue_max, stats=self.stats,
        )
        self.journal = JobJournal(self.service_dir / "journal.jsonl")
        self.runner: Optional[engine.CellRunner] = None
        self.draining = False
        #: Set once the server socket is bound (``bound_port`` is valid).
        self.started = threading.Event()
        self.bound_port: Optional[int] = None
        self._jobs: Dict[str, Job] = {}
        self._running: Optional[Job] = None
        self._queue: "asyncio.Queue[Job]" = asyncio.Queue()
        self._work_q: "thread_queue.SimpleQueue" = thread_queue.SimpleQueue()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown = asyncio.Event()
        self._worker: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def serve(self) -> int:
        """Run until drained; returns the process exit code."""
        try:
            asyncio.run(self._main())
        except OSError as exc:
            # Bind failure (port in use, bad host) — a startup error,
            # not a crash loop.
            _LOG.error("service failed to start: %s", exc)
            print(f"repro serve: {exc}")
            return 1
        return 0

    def request_shutdown(self) -> None:
        """Begin a graceful drain from any thread (tests, embedders)."""
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._begin_drain, "request")
            except RuntimeError:
                pass  # loop already closed: the daemon is gone

    def _begin_drain(self, source: str) -> None:
        if self.draining:
            return
        self.draining = True
        resilience.record_event(
            "service_drain",
            f"drain requested ({source}); shedding new work, "
            f"{self.queue_depth()} job(s) in flight",
        )
        self._shutdown.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        for signame in ("SIGTERM", "SIGINT"):
            try:
                self._loop.add_signal_handler(
                    getattr(signal, signame), self._begin_drain, signame
                )
            except (NotImplementedError, ValueError, OSError, RuntimeError):
                pass  # non-main thread or exotic host; tests use
                # request_shutdown() instead
        self.runner = engine.CellRunner(jobs=self.jobs_arg)
        self._replay_journal()
        self._worker = threading.Thread(
            target=self._worker_main, name="repro-service-worker", daemon=True
        )
        self._worker.start()
        dispatcher = asyncio.ensure_future(self._dispatch())
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        self._write_portfile()
        self.started.set()
        print(f"repro serve: listening on {self.host}:{self.bound_port} "
              f"(journal {self.journal.path}, queue max "
              f"{self.admission.queue_max})", flush=True)
        try:
            await self._shutdown.wait()
            await self._drain()
        finally:
            dispatcher.cancel()
            self._work_q.put(None)
            server.close()
            await server.wait_closed()
            self._cleanup()

    async def _drain(self) -> None:
        """Wait out in-flight work, bounded by the drain deadline."""
        deadline = self._loop.time() + self.drain_s
        while (
            (self._running is not None or not self._queue.empty())
            and self._loop.time() < deadline
        ):
            await asyncio.sleep(0.05)
        leftover = self.queue_depth()
        if leftover:
            _LOG.warning(
                "drain deadline (%.1fs) expired with %d job(s) in flight; "
                "they stay journaled and will replay on the next start",
                self.drain_s, leftover,
            )
        if self._worker is not None:
            self._work_q.put(None)
            self._worker.join(timeout=1.0)

    def _cleanup(self) -> None:
        completed = self.stats.completed
        try:
            if self.runner is not None:
                try:
                    self.runner.cache.flush()
                except Exception:
                    _LOG.exception("cache flush failed during drain")
                self.runner.cache.close_writer()
        finally:
            try:
                retained = self.journal.compact()
            except OSError:
                _LOG.exception("journal compaction failed during drain")
                retained = -1
            self.journal.close()
            engine.teardown()
            if self.portfile is not None:
                try:
                    self.portfile.unlink(missing_ok=True)
                except OSError:
                    pass
        print(f"repro serve: drained ({completed} job(s) completed this "
              f"lifetime, {max(retained, 0)} retained for replay)",
              flush=True)

    def _write_portfile(self) -> None:
        """Atomically publish the bound port (race-free ``--port 0``)."""
        if self.portfile is None:
            return
        self.portfile.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.portfile.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(str(self.bound_port))
        os.replace(tmp, self.portfile)

    # -- journal replay ------------------------------------------------------

    def _replay_journal(self) -> None:
        """Rebuild the job table from the journal after a restart.

        Interrupted jobs (accepted/running) re-enqueue — their finished
        cells are content-addressed cache hits, so the re-run costs only
        what the crash actually destroyed.  Terminal jobs keep serving
        their recorded outcome.  Records whose params no longer validate
        (schema drift, hand-edited journal) are dropped with a warning
        rather than wedging startup.
        """
        views = self.journal.replay()
        self.stats.journal_torn_lines = self.journal.torn_lines
        for key, view in views.items():
            params = view.get("params")
            state = view.get("state")
            try:
                params = validate_params(params if isinstance(params, dict)
                                         else {})
                job = Job.from_params(
                    params,
                    deadline_s=view.get("deadline_s"),
                    replayed=True,
                )
            except ReproError as exc:
                _LOG.warning("journal entry %s dropped on replay: %s",
                             key, exc)
                continue
            if job.key != key:
                _LOG.warning(
                    "journal entry %s re-keys to %s under the current "
                    "schema; replaying under the new key", key, job.key,
                )
            if isinstance(view.get("t"), (int, float)):
                job.accepted_at = float(view["t"])
            if state in (DONE, FAILED):
                job.state = state
                if isinstance(view.get("result"), dict):
                    job.result = view["result"]
                if isinstance(view.get("error"), dict):
                    job.error = view["error"]
                job.done_event.set()
                self._jobs[job.key] = job
                continue
            job.state = QUEUED
            self._jobs[job.key] = job
            self._queue.put_nowait(job)
            self.stats.journal_replays += 1
        if self.stats.journal_replays:
            print(f"repro serve: replayed {self.stats.journal_replays} "
                  f"interrupted job(s) from {self.journal.path}", flush=True)

    # -- execution -----------------------------------------------------------

    def queue_depth(self) -> int:
        return self._queue.qsize() + (1 if self._running is not None else 0)

    async def _dispatch(self) -> None:
        """Feed queued jobs to the executor thread, one at a time.

        One in-flight job by design: the runner itself fans each job out
        over the warm pool, so service-level concurrency would just make
        jobs fight for the same workers.
        """
        while True:
            job = await self._queue.get()
            if job.expired():
                self._expire(job)
                continue
            job.state = RUNNING
            self.journal.append(job.key, "running")
            self._running = job
            self._work_q.put(job)
            await job.done_event.wait()
            self._running = None

    def _expire(self, job: Job) -> None:
        job.state = FAILED
        job.error = {
            "error": f"deadline expired after {job.deadline_s:g}s in queue",
            "category": "execution",
            "retryable": True,
        }
        self.stats.expired += 1
        self.journal.append(job.key, "failed", error=job.error)
        job.done_event.set()

    def _worker_main(self) -> None:
        """Executor thread: runs jobs until handed the ``None`` sentinel."""
        while True:
            job = self._work_q.get()
            if job is None:
                return
            self._execute(job)

    def _execute(self, job: Job) -> None:
        """Run one job on the shared engine (executor thread).

        The terminal journal append happens *before* the waiting clients
        are released, preserving the invariant that any externally
        observable state is already durable.
        """
        t0 = time.monotonic()
        result = error = None
        # The delta is only available once the scope closes, so the
        # journal append happens after the with block.
        with engine.scoped_stats() as scope:
            try:
                result = _run_spec(self.runner, job.spec)
            except BaseException as exc:
                error = exc
        if error is not None:
            cls = taxonomy.classify(error)
            job.error = {
                "error": f"{type(error).__name__}: {error}",
                "category": cls.category,
                "retryable": cls.retryable,
                "degraded_mode": cls.degraded_mode,
            }
            job.state = FAILED
            self.stats.failed += 1
            self.journal.append(job.key, "failed", error=job.error)
            _LOG.warning("job %s failed: %s", job.key, job.error["error"])
        else:
            delta = scope_delta(scope)
            job.result = {
                "digest": result_digest(result),
                "workload": result.workload,
                "scheme": result.scheme,
                "cpi": result.cpi,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "wall_s": round(time.monotonic() - t0, 4),
                "engine": {
                    "simulated": delta.simulated,
                    "cache_hits": delta.cache_hits,
                    "deduplicated": delta.deduplicated,
                    "worker_crashes": delta.worker_crashes,
                    "serial_fallbacks": delta.serial_fallback_cells,
                },
            }
            job.state = DONE
            self.stats.completed += 1
            self.journal.append(job.key, "done", result=job.result)
        if self._loop is not None:
            self._loop.call_soon_threadsafe(job.done_event.set)

    # -- HTTP surface --------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=_REQUEST_TIMEOUT_S,
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ValueError, UnicodeDecodeError) as exc:
                await self._respond(writer, 400, {
                    "error": f"malformed request: {exc}",
                    "category": "config", "retryable": False,
                })
                return
            try:
                status, payload = await self._route(method, path, body)
            except ReproError as exc:
                status, payload = 400, {
                    "error": str(exc),
                    "category": exc.category,
                    "retryable": exc.retryable,
                }
            except Exception as exc:  # a handler bug must not kill the loop
                _LOG.exception("internal error handling %s %s", method, path)
                status, payload = 500, {
                    "error": f"internal error: {type(exc).__name__}: {exc}",
                    "category": "internal", "retryable": False,
                }
            await self._respond(writer, status, payload)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-exchange; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("ascii").strip()
        if not request_line:
            raise ValueError("empty request line")
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"bad request line {request_line!r}")
        method, target, _version = parts
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length < 0 or content_length > 1 << 20:
            raise ValueError(f"unreasonable content-length {content_length}")
        body = (
            await reader.readexactly(content_length)
            if content_length else b""
        )
        return method, target, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict[str, object]) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        retry_after = payload.get("retry_after_s")
        if isinstance(retry_after, (int, float)):
            lines.append(f"Retry-After: {max(1, math.ceil(retry_after))}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)
        await writer.drain()

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        path = target.partition("?")[0]
        if path == "/jobs":
            if method != "POST":
                return 405, {"error": "use POST /jobs",
                             "category": "config", "retryable": False}
            return await self._submit(body)
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "use GET /jobs/<key>",
                             "category": "config", "retryable": False}
            return self._job_status(path[len("/jobs/"):])
        if path in ("/healthz", "/stats") and method != "GET":
            return 405, {"error": f"use GET {path}",
                         "category": "config", "retryable": False}
        if path == "/healthz":
            return self._healthz()
        if path == "/stats":
            return 200, {
                "service": self._service_section(),
                "engine": engine.STATS.as_dict(),
                "engine_summary": engine.STATS.summary(),
            }
        return 404, {"error": f"unknown path {path!r}",
                     "category": "config", "retryable": False}

    async def _submit(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            return 400, {"error": f"body is not JSON: {exc}",
                         "category": "config", "retryable": False}
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object",
                         "category": "config", "retryable": False}
        wait = bool(payload.get("wait", False))
        deadline_s = payload.get("deadline_s", self.default_deadline_s)
        if deadline_s is not None and (
            isinstance(deadline_s, bool)
            or not isinstance(deadline_s, (int, float))
            or deadline_s < 0
        ):
            return 400, {"error": f"deadline_s must be a number of seconds "
                                  f">= 0, got {deadline_s!r}",
                         "category": "config", "retryable": False}
        params = validate_params(payload)  # ReproError -> 400 via caller
        job = Job.from_params(
            params, deadline_s=float(deadline_s) if deadline_s else None
        )

        existing = self._jobs.get(job.key)
        if existing is not None and existing.state != FAILED:
            # Request-layer dedup: join the in-flight (or finished) job.
            # Never counts against admission — a duplicate adds no load.
            self.stats.dedup_hits += 1
            job = existing
            dedup = True
        else:
            shed = self.admission.check(
                queue_depth=self._queue.qsize()
                + (1 if self._running is not None else 0),
                draining=self.draining,
            )
            if shed is not None:
                return shed.status, shed.payload()
            # Durable before observable: the accepted record hits disk
            # before the client hears 202 (or the dispatcher runs it).
            self.journal.append(job.key, "accepted", params=params,
                                deadline_s=job.deadline_s)
            self.stats.accepted += 1
            self._jobs[job.key] = job
            self._queue.put_nowait(job)
            dedup = False

        if wait and not job.terminal():
            await job.done_event.wait()
        doc = job.view()
        doc["dedup"] = dedup
        return (200 if job.terminal() else 202), doc

    def _job_status(self, key: str) -> Tuple[int, Dict[str, object]]:
        job = self._jobs.get(key)
        if job is None:
            return 404, {"error": f"unknown job {key!r}",
                         "category": "config", "retryable": False}
        return 200, job.view()

    def _healthz(self) -> Tuple[int, Dict[str, object]]:
        from ..resilience import health

        snap = health.snapshot(cache=self.runner.cache)
        snap["service"] = self._service_section()
        if self.draining:
            snap["status"] = "draining"
        status = 200 if snap["status"] == "ok" else 503
        return status, snap

    def _service_section(self) -> Dict[str, object]:
        by_state: Dict[str, int] = {
            QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0,
        }
        for job in self._jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "stats": self.stats.as_dict(),
            "queue_depth": self.queue_depth(),
            "queue_max": self.admission.queue_max,
            "running": self._running.key if self._running else None,
            "draining": self.draining,
            "jobs": by_state,
            "journal": str(self.journal.path),
        }


def scope_delta(scope: "engine.ScopedStats") -> "engine.EngineStats":
    """The scoped delta, tolerating a scope that never closed (only
    possible if ``scoped_stats`` itself broke — fail safe with zeros)."""
    return scope.delta if scope.delta is not None else engine.EngineStats()
