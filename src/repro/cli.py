"""Command-line interface for the SD-PCM reproduction.

Usage (also available as ``python -m repro``)::

    python -m repro list-workloads
    python -m repro list-schemes
    python -m repro simulate mcf --scheme LazyC+PreRead --length 2000
    python -m repro compare mcf --length 1000
    python -m repro experiment figure11 table1 ...
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, NoReturn, Optional

from . import envconfig
from .config import SystemConfig
from .core import schemes
from .core.system import simulate
from .errors import EnvError
from .stats.report import format_bars, format_table
from .traces.profiles import PROFILES, WORKLOAD_ORDER
from .traces.workload import homogeneous_workload


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one stderr line and exit status 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=`` for integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


_COUNT = _int_at_least(1)
_NON_NEGATIVE = _int_at_least(0)


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment sweep's arguments, shared by ``repro experiment``
    and ``python -m repro.experiments.runner``."""
    parser.add_argument(
        "names", nargs="*", metavar="name",
        help="experiments to run (default: all of them)",
    )
    parser.add_argument(
        "--jobs",
        type=_COUNT,
        default=None,
        help="worker processes for simulation cells (default REPRO_JOBS "
        "or the CPU count)",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write each result to DIR/<name>.json",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments the checkpoint manifest records as "
        "completed under the current parameters",
    )
    parser.add_argument(
        "--no-pipeline",
        action="store_true",
        help="disable cross-experiment pipelining (global spec prefetch "
        "into the warm pool)",
    )
    parser.add_argument(
        "--kernel-backend",
        choices=envconfig.KERNEL_BACKENDS,
        default=None,
        help="bit-kernel backend (default REPRO_KERNEL_BACKEND or auto: "
        "compiled when it builds on this host, else python)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="SD-PCM (ASPLOS 2015) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="show Table 3 workload profiles")
    sub.add_parser("list-schemes", help="show the named schemes")

    sim = sub.add_parser("simulate", help="run one workload under one scheme")
    sim.add_argument("workload", choices=WORKLOAD_ORDER)
    sim.add_argument("--scheme", choices=schemes.SCHEMES, default="baseline")
    sim.add_argument("--length", type=_NON_NEGATIVE, default=1000)
    sim.add_argument("--cores", type=_COUNT, default=8)
    sim.add_argument("--seed", type=_NON_NEGATIVE, default=1)

    cmp_p = sub.add_parser("compare", help="run the Figure 11 line-up on one workload")
    cmp_p.add_argument("workload", choices=WORKLOAD_ORDER)
    # A speedup divides CPIs, which needs at least one instruction.
    cmp_p.add_argument("--length", type=_COUNT, default=1000)
    cmp_p.add_argument("--cores", type=_COUNT, default=8)
    cmp_p.add_argument("--seed", type=_NON_NEGATIVE, default=1)

    exp = sub.add_parser("experiment", help="run paper experiments by name")
    add_sweep_arguments(exp)

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=("stats", "clear"))

    faults_p = sub.add_parser("faults", help="fault-injection tooling")
    faults_sub = faults_p.add_subparsers(dest="faults_command", required=True)
    fsweep = faults_sub.add_parser(
        "sweep",
        help="run the scheme line-up under injected faults and report "
        "end-to-end uncorrectable-error rates",
    )
    fsweep.add_argument("--workload", default="mcf", choices=WORKLOAD_ORDER)
    fsweep.add_argument(
        "--profile",
        action="append",
        choices=("light", "stress"),
        help="fault intensity; repeatable (default: both)",
    )
    fsweep.add_argument("--length", type=_NON_NEGATIVE, default=None)
    fsweep.add_argument("--cores", type=_COUNT, default=None)
    fsweep.add_argument("--seed", type=_NON_NEGATIVE, default=1)
    fsweep.add_argument(
        "--fault-seed",
        type=_NON_NEGATIVE,
        default=3,
        help="seed of the fault plan's RNG streams (fixed seed => "
        "bit-identical sweep)",
    )
    fsweep.add_argument("--jobs", type=_COUNT, default=None)

    perf_p = sub.add_parser("perf", help="performance tooling")
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)
    prof = perf_sub.add_parser(
        "profile",
        help="run one cold cell and print its coarse phase timing "
        "(trace_gen, simulate) and kernel backend",
    )
    prof.add_argument("workload", choices=WORKLOAD_ORDER)
    prof.add_argument("--scheme", choices=schemes.SCHEMES, default="LazyC+PreRead")
    prof.add_argument("--length", type=_NON_NEGATIVE, default=2000)
    prof.add_argument("--cores", type=_COUNT, default=4)
    prof.add_argument("--seed", type=_NON_NEGATIVE, default=1)
    prof.add_argument(
        "--kernel-backend",
        choices=envconfig.KERNEL_BACKENDS,
        default=None,
        help="bit-kernel backend to profile under (default "
        "REPRO_KERNEL_BACKEND or auto: compiled when it builds on this "
        "host, else python)",
    )

    gen = sub.add_parser("gen-trace", help="generate and save a workload trace")
    gen.add_argument("workload", choices=WORKLOAD_ORDER)
    gen.add_argument("path", help="output file (.npz binary or .trace text)")
    gen.add_argument("--length", type=_NON_NEGATIVE, default=10_000)
    gen.add_argument("--seed", type=_NON_NEGATIVE, default=1)

    ana = sub.add_parser("analyze", help="characterise a saved trace")
    ana.add_argument("path", help="trace file (.npz or text)")
    return parser


def _cmd_list_workloads() -> int:
    rows = [
        [p.name, p.suite, p.rpki, p.wpki, p.working_set_pages, p.flip_fraction]
        for p in (PROFILES[n] for n in WORKLOAD_ORDER)
    ]
    print(
        format_table(
            "Table 3 workloads",
            ["name", "suite", "RPKI", "WPKI", "pages", "flip fraction"],
            rows,
        )
    )
    return 0


def _cmd_list_schemes() -> int:
    for name in sorted(schemes.SCHEMES):
        print(name)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scheme = schemes.by_name(args.scheme)
    workload = homogeneous_workload(
        args.workload, cores=args.cores, length=args.length, seed=args.seed
    )
    config = SystemConfig(cores=args.cores, seed=args.seed).with_scheme(scheme)
    result = simulate(config, workload)
    c = result.counters
    rows = [
        ["CPI", result.cpi],
        ["cycles", result.cycles],
        ["instructions", result.instructions],
        ["corrections/write", c.corrections_per_write],
        ["WD errors/adjacent line", c.avg_errors_per_adjacent_line],
        ["word-line errors/write", c.avg_errors_wordline],
        ["ECP absorbed errors", c.ecp_absorbed_errors],
        ["writes cancelled", c.writes_cancelled],
        ["writes paused", c.writes_paused],
        ["data-chip lifetime", c.data_chip_lifetime],
        ["ECP-chip lifetime", c.ecp_chip_lifetime],
    ]
    print(format_table(f"{args.workload} under {args.scheme}", ["metric", "value"], rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    workload = homogeneous_workload(
        args.workload, cores=args.cores, length=args.length, seed=args.seed
    )
    results = {}
    for name in schemes.FIGURE11_SCHEMES:
        config = SystemConfig(cores=args.cores, seed=args.seed).with_scheme(
            schemes.by_name(name)
        )
        results[name] = simulate(config, workload)
    base = results["baseline"]
    rows = [
        [name, res.cpi, res.speedup_over(base)] for name, res in results.items()
    ]
    print(
        format_table(
            f"{args.workload}: Figure 11 line-up",
            ["scheme", "CPI", "speedup vs baseline"],
            rows,
        )
    )
    print()
    print(
        format_bars(
            "speedup vs baseline",
            [(name, res.speedup_over(base)) for name, res in results.items()],
        )
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import runner

    return runner.sweep(args, "repro experiment")


def _cmd_cache(action: str) -> int:
    from .perf.cache import ResultCache

    cache = ResultCache()
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    info = cache.info()
    rows = [
        ["directory", info.root],
        ["enabled", info.enabled],
        ["entries", info.entries],
        ["size (KiB)", info.bytes / 1024.0],
    ]
    print(format_table("result cache", ["metric", "value"], rows))
    return 0


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    from .faults import sweep
    from .perf import engine

    if args.jobs is not None:
        engine.configure(jobs=args.jobs)
    for result in sweep.sweep_rows(
        profiles=args.profile,
        bench=args.workload,
        length=args.length,
        cores=args.cores,
        seed=args.seed,
        fault_seed=args.fault_seed,
    ):
        print(result.render())
        print()
    print(f"  [engine: {engine.STATS.summary()}]")
    return 0


def _cmd_perf_profile(args: argparse.Namespace) -> int:
    from .pcm import kernels, stateplane
    from .perf.cache import ResultCache
    from .perf.cellspec import CellSpec
    from .perf.engine import CellRunner
    from .perf.profiler import PROFILER

    scheme = schemes.by_name(args.scheme)
    config = SystemConfig(cores=args.cores, seed=args.seed).with_scheme(scheme)
    spec = CellSpec(bench=args.workload, length=args.length, config=config)
    runner = CellRunner(jobs=1, cache=ResultCache(enabled=False),
                        kernel_backend=args.kernel_backend)
    PROFILER.reset()
    result = runner.run_cells([spec])[0]
    backend = kernels.active()
    flavor = getattr(backend, "flavor", None)
    backend_label = f"{backend.name} ({flavor})" if flavor else backend.name

    phases = {p: PROFILER.seconds.get(p, 0.0) for p in ("trace_gen", "simulate")}
    phases["total"] = total = sum(phases.values())
    rows = [[phase, f"{s:.3f}", f"{100.0 * s / max(total, 1e-12):.1f}%"]
            for phase, s in phases.items()]
    print(
        format_table(
            f"phase profile: {args.workload} under {args.scheme} "
            f"(length={args.length}, cores={args.cores}; "
            f"cycles={result.cycles}; kernels={backend_label})",
            ["phase", "seconds", "share"],
            rows,
        )
    )
    print(f"state plane: {stateplane.PLANE.summary()}")
    print(f"kernel backends available: {'/'.join(kernels.available_backends())}")
    return 0


def _fail(command: str, message: object) -> int:
    """Report an error as one stderr line; the exit status is 2."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return 2


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    from .traces import file_io
    from .traces.synthetic import generate_trace

    trace = generate_trace(args.workload, args.length, seed=args.seed)
    try:
        file_io.save(trace, args.path)
    except OSError as exc:
        return _fail("gen-trace", exc)
    print(f"wrote {len(trace)} records to {args.path}")
    return 0


def _cmd_analyze(path: str) -> int:
    from .errors import TraceError
    from .traces import file_io
    from .traces.analysis import analyse

    try:
        trace = file_io.load(path)
    except (OSError, TraceError) as exc:
        return _fail("analyze", exc)
    if not len(trace):
        return _fail("analyze", f"{path}: empty trace")
    print(format_table(f"trace profile: {path}", ["metric", "value"],
                       analyse(trace).summary_rows()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except EnvError as exc:
        # A bad REPRO_* value is reported like a bad flag.
        return _fail(args.command, exc)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list-workloads":
        return _cmd_list_workloads()
    if args.command == "list-schemes":
        return _cmd_list_schemes()
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "cache":
        return _cmd_cache(args.action)
    if args.command == "faults":
        return _cmd_faults_sweep(args)
    if args.command == "perf":
        return _cmd_perf_profile(args)
    if args.command == "gen-trace":
        return _cmd_gen_trace(args)
    if args.command == "analyze":
        return _cmd_analyze(args.path)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
