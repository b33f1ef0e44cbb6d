#!/usr/bin/env python3
"""Benchmark runner for the SD-PCM reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Workloads: ``sweep_cold``, ``cells_write_heavy`` and ``cells_read_heavy``
(see README.md beside this file).  Each run is one fresh process and one
closed loop: every call into the program returns before the next is made.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, and the run first starts an untraced run of the same
workload and seed in a fresh process, to report the tracing overhead.
The line before it is a ``{"stamp": ...}`` object recording the host,
the execution choices, the raw host timings, and the state of the
output checks.

``--write-reference`` regenerates ``reference.json`` (the digests every
run checks its outputs against); ``--setup-probe`` is the set-up step
this script times in fresh processes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import check
import layers

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
#: Scratch space for run caches and the kernel build (listed in .gitignore).
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

#: Sweep scale: at this trace length the scorecard holds 15/15 checks.
SWEEP_TRACE_LEN = 200
#: Cores of every cell-workload cell.
CELL_CORES = 4
#: The default seed, and the one the sweep experiments hard-code.
DEFAULT_SEED = 1
#: Fresh processes whose set-up time gives ``setup_s`` (median).
SETUP_PROBES = 5

SCHEMES = ("baseline", "LazyC", "LazyC+PreRead", "LazyC+PreRead+(2:3)")
#: Cell workloads: benches, per-core references, and passes per run.
#: Each run does the same work on any host; 7-15 s on a 2-CPU host.
#: Write-heavy cells run at the reference cold cell's scale (mcf,
#: LazyC+PreRead, 1200 x 4 is one of them).
CELL_WORKLOADS = {
    "cells_write_heavy": (("mcf", "lbm"), 1200, 3),
    "cells_read_heavy": (("bwaves", "leslie3d"), 2400, 5),
}
#: Seeds whose cell digests ``--write-reference`` records.
REFERENCE_SEEDS = range(0, 40)
WORKLOADS = ("sweep_cold", *CELL_WORKLOADS)

#: The host-speed probe: random reads of a list of ``PROBE_WORDS`` ints
#: (about 10 MB, so that the probe slows down with the host much as the
#: simulator does), and the seconds it takes on the reference host.  A
#: CPU of a shared VM runs up to 2x slower for phases of seconds; an
#: untraced run reports host seconds scaled by ``REF_PROBE_S`` over the
#: probe's time measured beside them.
PROBE_WORDS = 1 << 18
PROBE_ITERATIONS = 20000
REF_PROBE_S = 0.0125
_PROBE_DATA: List[int] = []
#: ``sweep_cold`` keeps both CPUs busy, so a sampler process probes each
#: CPU briefly, twice a second, while the sweep runs, over a part of the
#: list that stays in cache; ``REF_SAMPLE_S`` is its reference time.
SAMPLER_ITERATIONS = 1000
SAMPLER_WORDS = 1 << 10
REF_SAMPLE_S = 0.0005
SAMPLE_INTERVAL_S = 0.5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

MODEL_FIELDS = ("demand_writes", "corrections", "verify_reads",
                "preread_hits", "ecp_absorbed_errors")

_perf = time.perf_counter


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def nproc() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))


def compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def pin_environment(cache_dir: Path) -> None:
    """Drop inherited ``REPRO_*`` settings and pin the benchmark's own."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ["REPRO_TRACE_LEN"] = str(SWEEP_TRACE_LEN)
    # The kernel build's compiler writes its intermediates under TMPDIR.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


# -- set-up --------------------------------------------------------------


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def seed_kernels(cache_dir: Path) -> None:
    """Copy the benchmark's kernel build into a run's cache directory."""
    built = WORK / "kernels"
    if built.is_dir() and not (cache_dir / "kernels").exists():
        shutil.copytree(built, cache_dir / "kernels")


def keep_kernels(cache_dir: Path) -> None:
    """Keep the first kernel build for later runs in this checkout."""
    built = WORK / "kernels"
    source = cache_dir / "kernels"
    if built.exists() or not source.is_dir():
        return
    staging = WORK / f"kernels.tmp{os.getpid()}"
    shutil.copytree(source, staging)
    try:
        os.replace(staging, built)
    except OSError:
        shutil.rmtree(staging, ignore_errors=True)


def warm_backends() -> None:
    """Import the entry points and build or load every kernel backend.

    Nothing is simulated: a simulation here would fill the process-wide
    state plane, which forked pool workers inherit.
    """
    from repro.experiments import runner  # noqa: F401  (every experiment)
    from repro.pcm import kernels

    kernels.available_backends()


def timed_setup(cache_dir: Path) -> Tuple[float, float]:
    """Set-up seconds of fresh processes doing this script's set-up: the
    median in host seconds, and the median of each scaled by the probes
    before and after it.

    Each process and its probes run on one CPU, taking the CPUs in turn:
    the CPUs of a shared VM change speed independently.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpus = sorted(os.sched_getaffinity(0))
    samples, scaled = [], []
    try:
        for i in range(SETUP_PROBES):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            before = probe_s()
            start = _perf()
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--setup-probe"],
                cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
            )
            samples.append(_perf() - start)
            after = probe_s()
            scaled.append(samples[-1] * REF_PROBE_S * 2 / (before + after))
    finally:
        os.sched_setaffinity(0, cpus)
    keep_kernels(cache_dir)
    return statistics.median(samples), statistics.median(scaled)


# -- measurement helpers -------------------------------------------------


def probe_s(iterations: int = PROBE_ITERATIONS,
            words: int = PROBE_WORDS) -> float:
    """Host seconds of a fixed pure-Python loop over the first ``words``
    ints of the probe's list, the best of three."""
    data = _PROBE_DATA
    if not data:
        rng = random.Random(0)
        data.extend(rng.getrandbits(40) for _ in range(PROBE_WORDS))
    mask = words - 1
    best = float("inf")
    for _ in range(3):
        start = _perf()
        table: Dict[int, int] = {}
        acc, index = 0, 1
        for i in range(iterations):
            # A full-period LCG over the list's indices.
            index = (index * 1103515245 + 12345) & mask
            value = data[index]
            key = value & 1023
            acc = (acc + table.get(key, value)) & 0xFFFFFFFF
            table[key] = acc ^ i
        best = min(best, _perf() - start)
    return best


def sample_speed() -> None:
    """``--speed-sampler``: probe each CPU in turn every
    ``SAMPLE_INTERVAL_S`` until SIGTERM, then print the probe times.

    Each probe is short (under 1 ms), so it finishes within the
    slice the scheduler gives a task that wakes on a busy CPU, and reads
    only a cache-resident part of the list: the pool's own memory
    traffic would evict a larger one between samples.
    """
    stop: List[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    probe_s(SAMPLER_ITERATIONS, SAMPLER_WORDS)  # builds the probe's list
    print("ready", flush=True)
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    while not stop:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples.append(probe_s(SAMPLER_ITERATIONS, SAMPLER_WORDS))
        time.sleep(SAMPLE_INTERVAL_S)
    print(json.dumps(samples), flush=True)


@contextlib.contextmanager
def speed_sampler(samples: List[float]):
    """Run ``--speed-sampler`` beside the block; fill ``samples``."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--speed-sampler"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        proc.stdout.readline()  # "ready"
        yield
    finally:
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    samples.extend(json.loads(out.strip().splitlines()[-1]))


def timed(tracer: Optional[layers.Tracer], fn):
    """``fn()`` and its host seconds; in a traced run, the root span."""
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.enabled = True
        span = tracer.span("workload")
    start = _perf()
    try:
        with span:
            out = fn()
    finally:
        if tracer is not None:
            tracer.enabled = False
    return out, _perf() - start


def low_quartile(values: List[float]) -> float:
    """First quartile of repeated timings of the same work.

    The host's noise only ever lengthens a timing, so the lower quartile
    of a run's repetitions moves less from run to run than their median.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def child_pids() -> List[int]:
    """Processes whose parent is this one, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # After the parenthesised command name: state, then parent pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The program's warm pool and shared-memory planes go first; their
    ``atexit`` hooks would otherwise run after the resource tracker is
    stopped and start it again.  The tracker, which multiprocessing starts
    for shared memory, outlives its parent by design, so it is stopped
    here; anything else still a child of this process is killed.
    """
    engine = sys.modules.get("repro.perf.engine")
    if engine is not None:
        engine.teardown()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def peak_rss_mib() -> float:
    """The larger of this process's peak RSS and its live children's."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kib = max(peak_kib, int(line.split()[1]))
        except OSError:
            continue
    return peak_kib / 1024.0


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.checked = 0
        self.unchecked = 0
        #: Reported metrics (times at the reference probe speed in an
        #: untraced run, host seconds in a traced one).
        self.e2e: Dict[str, float] = {}
        #: The same metrics in host seconds, and the run's probe time.
        self.host: Dict[str, float] = {}
        self.probe_s: Optional[float] = None
        self.requested = 0
        self.sim_refs_per_s = 0.0
        self.model: Dict[str, int] = defaultdict(int)
        #: Output digests by experiment or cell key (``--write-reference``).
        self.digests: Dict[str, object] = {}
        self.paper_checks: Optional[int] = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def add_model(self, results) -> None:
        self.model["cycles"] += sum(r.cycles for r in results)
        for field in MODEL_FIELDS:
            self.model[field] += sum(getattr(r.counters, field) for r in results)

    def report(self, wall_s: float, cells: int, scale: float,
               setup: Optional[Tuple[float, float]]) -> None:
        """Record host timings, and the reported ones: ``wall_s`` times
        ``scale`` (1 in a traced run) and ``setup``'s scaled seconds."""
        self.host = dict(wall_s=wall_s, cells_per_s=cells / wall_s)
        self.e2e = dict(wall_s=wall_s * scale,
                        cells_per_s=cells / (wall_s * scale),
                        peak_rss_mib=peak_rss_mib())
        if setup is not None:
            self.host["setup_s"], self.e2e["setup_s"] = setup


# -- the sweep workload --------------------------------------------------


class SweepRecorder:
    """Groups the cells each experiment requests and counts requests.

    Installed in untraced runs too: one wrapper call per experiment and
    per ``run_cells`` batch.  In a traced run each experiment of the main
    loop is also a span; the runner's planning pass calls the same
    experiment functions and is left to the ``experiments.planning`` span.
    """

    def __init__(self, tracer: Optional[layers.Tracer]) -> None:
        self.tracer = tracer
        self.planning = False
        self.current: Optional[str] = None
        self.results: Dict[str, list] = defaultdict(list)
        self.requested = 0

    def install(self) -> None:
        from repro.experiments import runner
        from repro.perf import engine

        recorder = self
        run_cells = engine.CellRunner.run_cells
        collect = runner.collect_sweep_specs

        def recording_run_cells(cell_runner, specs):
            results = run_cells(cell_runner, specs)
            recorder.requested += len(specs)
            if recorder.current is not None:
                recorder.results[recorder.current].extend(results)
            return results

        def planning(names):
            recorder.planning = True
            try:
                return collect(names)
            finally:
                recorder.planning = False

        engine.CellRunner.run_cells = recording_run_cells
        runner.collect_sweep_specs = planning
        for name, fn in list(runner.EXPERIMENTS.items()):
            runner.EXPERIMENTS[name] = self._experiment(name, fn)

    def _experiment(self, name: str, fn):
        recorder = self

        def experiment():
            if recorder.planning:
                return fn()
            recorder.current = name
            try:
                if recorder.tracer is None:
                    return fn()
                with recorder.tracer.span(f"experiments.{name}"):
                    return fn()
            finally:
                recorder.current = None

        return experiment


def sweep_pass(jobs: int, json_dir: Path) -> int:
    from repro.experiments import runner

    with contextlib.redirect_stdout(io.StringIO()):
        return runner.main(["--jobs", str(jobs), "--json", str(json_dir)])


def check_sweep(outcome: Outcome, recorder: SweepRecorder, json_dir: Path,
                ref: Optional[dict]) -> None:
    """Check the sweep's tables and cells and record their digests."""
    from repro.experiments import runner

    fields = ref["counter_fields"] if ref else check.counter_fields()
    wanted = ref["sweep"]["experiments"] if ref else None
    for name in (wanted or runner.EXPERIMENTS):
        outcome.attempted += 1
        path = json_dir / f"{name}.json"
        if not path.is_file():
            outcome.fail(f"{name}: no exported JSON")
            continue
        got = {
            "json": check.file_digest(path),
            "cells": check.cells_digest(
                check.cell_digest(r, fields) for r in recorder.results[name]
            ),
        }
        outcome.digests[name] = got
        if wanted is not None and got != wanted[name]:
            outcome.fail(f"{name}: output digest differs from the reference")
    scorecard = json_dir / "scorecard.json"
    if scorecard.is_file():
        rows = json.loads(scorecard.read_text())["rows"]
        outcome.paper_checks = sum(1 for row in rows if row[-1] == "PASS")


def run_sweep_cold(args, tracer, ref) -> Outcome:
    outcome = Outcome()
    cache_dir = fresh_dir(WORK / f"run-{os.getpid()}")
    pin_environment(cache_dir)
    seed_kernels(cache_dir)
    setup = timed_setup(cache_dir) if tracer is None else None
    warm_backends()
    recorder = SweepRecorder(tracer)
    recorder.install()
    if tracer is not None:
        layers.install(tracer)
    from repro.experiments.common import core_count
    from repro.perf import engine

    json_dir = cache_dir / "json"
    probes: List[float] = []
    sampling = (speed_sampler(probes) if tracer is None
                else contextlib.nullcontext())
    with sampling:
        try:
            code, wall = timed(tracer, lambda: sweep_pass(nproc(), json_dir))
            rss = peak_rss_mib()
        finally:
            engine.teardown()
    if code != 0:
        outcome.fail(f"runner exited {code}")
    check_sweep(outcome, recorder, json_dir, ref)
    outcome.requested = recorder.requested
    for results in recorder.results.values():
        outcome.add_model(results)
    outcome.checked = outcome.attempted
    # Every sweep cell runs at the default scale; a simulated cell
    # replays length x cores references.
    outcome.sim_refs_per_s = (
        engine.STATS.simulated * SWEEP_TRACE_LEN * core_count() / wall
    )
    scale = 1.0
    if probes:
        # The median, not the mean: probes that land while a CPU idles
        # (a fifth of them, in the sweep's serial stretches) run faster,
        # and their share follows the program, not the host.
        outcome.probe_s = statistics.median(probes)
        scale = REF_SAMPLE_S / outcome.probe_s
    outcome.report(wall, outcome.requested, scale, setup)
    outcome.e2e["peak_rss_mib"] = rss
    shutil.rmtree(cache_dir, ignore_errors=True)
    return outcome


# -- the cell workloads --------------------------------------------------


def scheme(name: str):
    from repro.core import schemes

    return {
        "baseline": schemes.baseline,
        "LazyC": schemes.lazyc,
        "LazyC+PreRead": schemes.lazyc_preread,
        "LazyC+PreRead+(2:3)": schemes.all_combined,
    }[name]()


def cell_pass(workload: str, seed: int) -> List[tuple]:
    """(bench, scheme, length, seed) of one pass: every bench under every
    scheme, in replay order."""
    benches, length, _ = CELL_WORKLOADS[workload]
    return [(bench, name, length, seed) for bench in benches for name in SCHEMES]


def cell_passes(workload: str, seed: int) -> List[List[tuple]]:
    """Pass ``p`` replays the workload at seed ``seed + p``."""
    return [cell_pass(workload, seed + p)
            for p in range(CELL_WORKLOADS[workload][2])]


def pass_time(plan, times) -> float:
    """One pass's seconds, robust to host noise.

    Per cell type (bench, scheme), the lower quartile over the run's
    passes; summed over the types of a pass.
    """
    by_type = defaultdict(list)
    for (bench, name, _, _), seconds in zip(plan, times):
        by_type[(bench, name)].append(seconds)
    return sum(low_quartile(v) for v in by_type.values())


def replay_cells(passes, tracer, outcome: Outcome, probe: bool):
    """Replay passes of cells, one ``run_cells`` call per cell.

    Returns the replayed cell keys, their results (``None`` where one
    raised), their host seconds, and (with ``probe``) the mean probe time
    before and after each cell.
    """
    from repro.experiments.common import cell
    from repro.perf.cache import ResultCache
    from repro.perf.engine import CellRunner

    cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
    runner = CellRunner(jobs=1, cache=ResultCache(root=cache_dir / "results"))
    plan, results, times, probes = [], [], [], []

    def replay():
        before = probe_s() if probe else 0.0
        for keys in passes:
            for key in keys:
                bench, name, length, seed = key
                spec = cell(bench, scheme(name), length=length,
                            cores=CELL_CORES, seed=seed)
                start = _perf()
                try:
                    results.append(runner.run_cells([spec])[0])
                except Exception as exc:  # counted, and the loop goes on
                    results.append(None)
                    outcome.fail(f"{check.cell_key(*key)}: {exc!r}")
                times.append(_perf() - start)
                plan.append(key)
                if probe:
                    after = probe_s()
                    probes.append((before + after) / 2)
                    before = after

    timed(tracer, replay)
    return plan, results, times, probes


def check_cells(outcome: Outcome, plan, results, ref: Optional[dict]) -> None:
    from repro.traces.shm import workload_for

    fields = ref["counter_fields"] if ref else check.counter_fields()
    wanted = ref["cells"]["digests"] if ref else {}
    for key, result in zip(plan, results):
        outcome.attempted += 1
        if result is None:
            continue
        name = check.cell_key(*key)
        bench, _, length, seed = key
        trace = workload_for(bench, length=length, cores=CELL_CORES, seed=seed)
        problems = check.invariant_violations(result, trace.total_instructions)
        digest = check.cell_digest(result, fields)
        outcome.digests[name] = digest
        if name in wanted:
            outcome.checked += 1
            if digest != wanted[name]:
                problems.append("digest differs from the reference")
        else:
            outcome.unchecked += 1
        if problems:
            outcome.fail(f"{name}: {'; '.join(problems)}")
    outcome.add_model([r for r in results if r is not None])
    outcome.requested = len(plan)


def run_cells_workload(args, tracer, ref) -> Outcome:
    outcome = Outcome()
    cache_dir = fresh_dir(WORK / f"run-{os.getpid()}")
    pin_environment(cache_dir)
    seed_kernels(cache_dir)
    setup = timed_setup(cache_dir) if tracer is None else None
    warm_backends()
    if tracer is not None:
        layers.install(tracer)
    passes = cell_passes(args.workload, args.seed)
    plan, results, times, probes = replay_cells(
        passes, tracer, outcome, probe=tracer is None)
    cells = len(passes[0])
    wall = pass_time(plan, times)
    scale = 1.0
    if probes:
        # Each cell is scaled by the probe beside it; the run's scale is
        # what that makes of the whole pass.
        outcome.probe_s = statistics.median(probes)
        scale = pass_time(plan, [t * REF_PROBE_S / p
                                 for t, p in zip(times, probes)]) / wall
    outcome.report(wall, cells, scale, setup)
    outcome.sim_refs_per_s = cells * plan[0][2] * CELL_CORES / wall
    check_cells(outcome, plan, results, ref)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return outcome


RUNNERS = {
    "sweep_cold": run_sweep_cold,
    "cells_write_heavy": run_cells_workload,
    "cells_read_heavy": run_cells_workload,
}


# -- reporting -----------------------------------------------------------


def engine_counters() -> Dict[str, int]:
    from repro.perf import engine

    return {name: getattr(engine.STATS, name) for name in layers.ENGINE_COUNTERS}


def stamp(args, outcome: Outcome, ref: Optional[dict]) -> dict:
    from repro.pcm import kernels
    from repro.perf.planner import host_fingerprint

    sweep = args.workload.startswith("sweep")
    flavor = None
    try:
        flavor = kernels.get_backend("compiled").flavor
    except Exception:  # no compiled backend on this host
        pass
    if outcome.unchecked == 0:
        digests = "checked"
    elif outcome.checked == 0:
        digests = "unchecked"
    else:
        digests = "partly checked"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_applies": not sweep,
        "seed_note": ("the sweep experiments hard-code seed 1"
                      if sweep else "cell seeds are seed + pass"),
        "host": dict(host_fingerprint(), platform=platform.platform()),
        "nproc": nproc(),
        "jobs": nproc() if sweep else 1,
        "compiler": compiler(),
        "REPRO_TRACE_LEN": SWEEP_TRACE_LEN if sweep else None,
        "cell_scale": None if sweep
        else f"{CELL_WORKLOADS[args.workload][1]}x{CELL_CORES}",
        "source_digest": check.source_digest(SRC),
        "reference_source_digest": ref.get("source_digest") if ref else None,
        "digests": digests,
        "cells_checked": outcome.checked,
        "cells_unchecked": outcome.unchecked,
        "kernel_backend": kernels.active_name(),
        "compiled_flavor": flavor,
        "choices": engine_counters(),
        "host_seconds": outcome.host,
        "probe_s": outcome.probe_s,
        "ref_probe_s": REF_PROBE_S,
        "requested_cells": outcome.requested,
        "sim_refs_per_s": outcome.sim_refs_per_s,
        "error_rate": outcome.failed / max(1, outcome.attempted),
        "paper_checks_passed": outcome.paper_checks,
        "problems": outcome.problems,
    }


def layer_metrics(tracer: layers.Tracer, outcome: Outcome, untraced: dict,
                  experiments: List[str]) -> Dict[str, float]:
    from repro.pcm.stateplane import PLANE
    from repro.perf import engine
    from repro.perf.profiler import PROFILER
    from repro.traces import shm

    calls, self_s, total = tracer.calls, tracer.self_s, tracer.total
    wall = total["workload"]
    by_layer = tracer.layer_self()
    stats = engine.STATS
    m: Dict[str, float] = {}
    for name in experiments:
        m[f"experiments.{name}.s"] = total[f"experiments.{name}"]
    m["experiments.render.s"] = self_s["experiments.render"]
    for layer, seconds in by_layer.items():
        m[f"{layer}.self_s"] = seconds
    m["unattributed.self_s"] = self_s["workload"]
    m["trace.wall_s"] = wall
    # Both runs replay the same requests and summarise their host timings
    # the same way, so the overhead is the ratio of their throughputs.
    host_cells_per_s = untraced["stamp"]["host_seconds"]["cells_per_s"]
    m["trace.untraced_cells_per_s"] = host_cells_per_s
    m["trace.overhead"] = host_cells_per_s / outcome.host["cells_per_s"]
    m["share.vnc_group"] = sum(by_layer[l] for l in layers.VNC_GROUP) / wall
    m["share.loop_controller"] = sum(by_layer[l] for l in layers.LOOP_GROUP) / wall
    m["perf.engine.run_cells.calls"] = calls["perf.engine.run_cells"]
    m["perf.engine.requested"] = outcome.requested
    m.update({f"perf.engine.{k}": v for k, v in engine_counters().items()})
    m["perf.engine.simulated_per_requested"] = (
        stats.simulated / outcome.requested if outcome.requested else 0.0
    )
    for method in ("load", "store_async", "flush", "cache_key"):
        m[f"perf.cache.{method}.calls"] = calls[f"perf.cache.{method}"]
        m[f"perf.cache.{method}.s"] = self_s[f"perf.cache.{method}"]
    m["perf.cache.contains.calls"] = calls["perf.cache.contains"]
    loads = calls["perf.cache.load"]
    m["perf.cache.hit_ratio"] = stats.cache_hits / loads if loads else 0.0
    m["traces.workload_for.calls"] = calls["traces.workload_for"]
    m["traces.workload_for.s"] = self_s["traces.workload_for"]
    m["traces.publish.calls"] = calls["traces.publish"]
    m["traces.plane_segments"] = shm.PLANE.published
    m["traces.plane_reuses"] = shm.PLANE.hits
    for method in ("init", "run"):
        m[f"core.system.{method}.calls"] = calls[f"core.system.{method}"]
        m[f"core.system.{method}.s"] = self_s[f"core.system.{method}"]
    m["core.engine.loop_run.calls"] = calls["core.engine.loop_run"]
    for method in ("enqueue_read", "try_enqueue_write", "wait_for_space"):
        m[f"mem.controller.{method}.calls"] = calls[f"mem.controller.{method}"]
    for method in ("execute", "preread_slots", "capture_baseline", "commit"):
        m[f"core.vnc.{method}.calls"] = calls[f"core.vnc.{method}"]
        m[f"core.vnc.{method}.s"] = self_s[f"core.vnc.{method}"]
    for method in layers.KERNEL_METHODS:
        m[f"pcm.kernels.{method}.calls"] = calls[f"pcm.kernels.{method}"]
    m["ecp.line.calls"] = calls["ecp.line"]
    rows = PLANE.row_hits + PLANE.row_misses
    masks = PLANE.mask_hits + PLANE.mask_misses
    m["pcm.stateplane.row_hit_ratio"] = PLANE.row_hits / rows if rows else 0.0
    m["pcm.stateplane.mask_hit_ratio"] = PLANE.mask_hits / masks if masks else 0.0
    m["pcm.stateplane.pristine_row.calls"] = calls["pcm.stateplane.pristine_row"]
    m["pcm.stateplane.weak_mask.calls"] = calls["pcm.stateplane.weak_mask"]
    m["profiler.simulate_s"] = PROFILER.seconds.get("simulate", 0.0)
    m["profiler.trace_gen_s"] = PROFILER.seconds.get("trace_gen", 0.0)
    m["model.cycles"] = outcome.model["cycles"]
    for field in MODEL_FIELDS:
        m[f"model.{field}"] = outcome.model[field]
    m["sim_refs_per_s"] = untraced["stamp"]["sim_refs_per_s"]
    m["error_rate"] = untraced["stamp"]["error_rate"]
    m["paper_checks_passed"] = outcome.paper_checks or 0
    return m


def untraced_twin(args) -> dict:
    """Run the same workload and seed untraced, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {
        "correct": json.loads(lines[-1])["correct"],
        "stamp": json.loads(lines[-2])["stamp"],
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


# -- entry points --------------------------------------------------------


def write_reference() -> None:
    """Record the digests of the current sources' outputs."""
    args = argparse.Namespace(workload="sweep_cold", seed=DEFAULT_SEED)
    log("cold sweep for the experiment digests")
    outcome = run_sweep_cold(args, None, None)
    if outcome.failed or outcome.paper_checks is None:
        raise SystemExit(f"reference sweep failed: {outcome.problems}")
    paper_checks = outcome.paper_checks
    experiments = outcome.digests
    digests = {}
    for workload in CELL_WORKLOADS:
        passes = [cell_pass(workload, seed) for seed in REFERENCE_SEEDS]
        log(f"{len(passes)} passes of {workload}")
        outcome = Outcome()
        pin_environment(fresh_dir(WORK / f"run-{os.getpid()}"))
        plan, results, _, _ = replay_cells(passes, None, outcome, probe=False)
        check_cells(outcome, plan, results, None)
        digests.update(outcome.digests)
        if outcome.failed:
            raise SystemExit(f"reference cells failed: {outcome.problems}")
    reference = {
        "source_digest": check.source_digest(SRC),
        "counter_fields": check.counter_fields(),
        "sweep": {"trace_len": SWEEP_TRACE_LEN, "cores": 8,
                  "paper_checks_passed": paper_checks,
                  "experiments": experiments},
        "cells": {"cores": CELL_CORES, "seeds": [REFERENCE_SEEDS.start,
                                                  REFERENCE_SEEDS.stop - 1],
                  "digests": dict(sorted(digests.items()))},
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    shutil.rmtree(WORK / f"run-{os.getpid()}", ignore_errors=True)
    log(f"wrote {REFERENCE}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10,
                        help="accepted and ignored: a run's work is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--speed-sampler", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference digests and exit")
    args = parser.parse_args(argv)
    if not (args.setup_probe or args.speed_sampler or args.write_reference
            or args.workload):
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.speed_sampler:
        sample_speed()
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC / 'repro'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        warm_backends()
        return 0
    WORK.mkdir(exist_ok=True)
    try:
        return run_workload(args)
    finally:
        stop_children()


def run_workload(args) -> int:
    if args.write_reference:
        write_reference()
        return 0
    try:
        ref = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {REFERENCE}: {exc}", file=sys.stderr)
        return 2

    untraced = untraced_twin(args) if args.trace else None
    tracer = layers.Tracer() if args.trace else None
    outcome = RUNNERS[args.workload](args, tracer, ref)
    info = stamp(args, outcome, ref)
    correct = outcome.failed == 0
    if args.workload.startswith("sweep"):
        correct = correct and outcome.paper_checks == ref["sweep"]["paper_checks_passed"]
    print(json.dumps({"stamp": info}))
    if tracer is None:
        emit(correct, outcome.attempted, outcome.failed, outcome.e2e, E2E_UNITS)
    else:
        experiments = list(ref["sweep"]["experiments"])
        metrics = layer_metrics(tracer, outcome, untraced, experiments)
        units = {name: unit for name, unit, _ in layers.per_layer_spec(experiments)}
        spans = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(
            [dict(zip(("name", "start", "end", "parent"), record))
             for record in tracer.records]
        ))
        log(f"wrote {len(tracer.records)} spans to {spans}")
        emit(correct and untraced["correct"], outcome.attempted,
             outcome.failed, metrics, units)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
