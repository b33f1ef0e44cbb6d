"""The callables ``perfbench/layers.py`` wraps still exist and still run.

The benchmark's traced run patches layer boundaries by attribute name
(``VnCExecutor._commit``, ``ECPChip.line``, ``StatePlane.pristine_row``,
``StatePlane.weak_mask``, ``MemoryController.try_enqueue_write``, the
kernel backends' methods, ...).  A rename in ``src/``, a first touch
routed around the plane, or a write path that binds around the
backend's methods (which retire a failing native kernel onto the Python
path) would otherwise surface only when that traced run fails or
reports zero calls.  The install runs in a subprocess, so the wrappers
never leak into this test process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parent.parent.parent

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import layers
from repro.core import schemes
from repro.core.system import simulate
from tests.conftest import small_config, small_workload

tracer = layers.Tracer()
layers.install(tracer)
tracer.enabled = True
simulate(small_config(schemes.lazyc_preread()), small_workload("mcf", length=200))
tracer.enabled = False
for name in ("core.system.init", "core.system.run", "core.engine.loop_run",
             "mem.controller.try_enqueue_write", "mem.controller.enqueue_read",
             "core.vnc.execute", "core.vnc.commit", "core.vnc.preread_slots",
             "core.vnc.capture_baseline", "ecp.line",
             "pcm.stateplane.pristine_row", "pcm.stateplane.weak_mask",
             "pcm.kernels.sample_mask_int", "pcm.kernels.sample_masks_int",
             "pcm.kernels.encode_stored_int", "pcm.kernels.decode_int"):
    assert tracer.calls[name] > 0, name
"""


def test_layers_install_and_trace_a_replay():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), str(REPO), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
