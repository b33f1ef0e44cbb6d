#!/usr/bin/env python3
"""Self-test of the benchmark runner.

Run from the repository root (about six minutes on a 2-CPU host)::

    python3 perfbench/selftest.py                   # every workload
    python3 perfbench/selftest.py cells_read_heavy  # some workloads

It checks that

* each workload's untraced run emits exactly the end-to-end metrics of
  BENCHMARK.json and its traced run exactly the per-layer metrics, with
  correct outputs;
* in a traced run, the layer self times plus ``unattributed`` add up to
  the traced wall time;
* no run leaves a process behind;
* a tampered reference digest makes a run incorrect, with failed
  operations and a non-zero error rate;
* in a directory holding only BENCHMARK.json and the benchmark, the
  runner exits non-zero without printing a result.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from run import child_pids

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
WORK = ROOT / ".bench_work"
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans():
    """Make this process the one that inherits the orphans of its
    descendants, so that a process a run leaves behind, even one that
    ends soon after, shows as a child of this one."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def run(args, cwd=ROOT, script=HERE / "run.py", timeout=900):
    """Run ``script`` with ``args``; fail if it leaves a process behind."""
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    left = child_pids()
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert not left, f"{args} left processes {left} behind"
    return proc


def result(args):
    proc = run(args)
    if proc.returncode != 0:
        raise AssertionError(f"{args} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["stamp"]


def workload_args(workload, trace):
    return ["--workload", workload, "--seed", "1", "--seconds", "10",
            "--trace", str(trace)]


def check_metrics(benchmark, workload):
    want = {m["name"] for m in benchmark["end_to_end"]}
    out, _ = result(workload_args(workload, 0))
    assert set(out["metrics"]) == want, set(out["metrics"]) ^ want
    assert out["correct"] and out["failed"] == 0, out
    assert all(m["value"] > 0 for m in out["metrics"].values()), out

    want = {m["name"] for m in benchmark["per_layer"]}
    out, _ = result(workload_args(workload, 1))
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    assert set(metrics) == want, set(metrics) ^ want
    assert out["correct"] and out["failed"] == 0, out
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(parts - metrics["trace.wall_s"]) <= 1e-6 * metrics["trace.wall_s"], (
        parts, metrics["trace.wall_s"])


def copy_benchmark(directory):
    """A copy of the benchmark's directory under ``directory``."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    shutil.copytree(HERE, directory / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return directory / HERE.name


def check_tampered():
    """A copy whose reference has one wrong cell digest, run on the
    repository's sources."""
    tampered = WORK / "selftest-tampered"
    copy = copy_benchmark(tampered)
    reference = json.loads((copy / "reference.json").read_text())
    reference["cells"]["digests"]["bwaves|baseline|2400|1"] = "0" * 64
    (copy / "reference.json").write_text(json.dumps(reference))
    proc = run(workload_args("cells_read_heavy", 0), script=copy / "run.py")
    assert proc.returncode == 0, proc.returncode
    lines = proc.stdout.strip().splitlines()
    out, info = json.loads(lines[-1]), json.loads(lines[-2])["stamp"]
    assert not out["correct"] and out["failed"] >= 1, out
    assert info["error_rate"] > 0, info
    shutil.rmtree(tampered)


def check_bare_directory():
    bare = WORK / "selftest-bare"
    copy_benchmark(bare)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(workload_args("cells_read_heavy", 0), cwd=bare,
               script=Path(HERE.name, "run.py"), timeout=180)
    assert proc.returncode != 0, proc.returncode
    assert '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)


def main(argv):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = argv or [w["name"] for w in benchmark["workloads"]]
    WORK.mkdir(exist_ok=True)
    adopt_orphans()
    check_bare_directory()
    print("ok: bare directory exits non-zero without a result")
    check_tampered()
    print("ok: a tampered reference digest raises error_rate")
    for workload in workloads:
        check_metrics(benchmark, workload)
        print(f"ok: {workload} emits every metric; layer times add up")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
