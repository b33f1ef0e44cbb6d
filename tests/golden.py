"""Golden result digests: what ``GOLDEN.json`` pins and how it is made.

``GOLDEN.json`` at the repository root holds the sha256 of the reference
cell's :class:`~repro.core.results.SimulationResult` and of every
experiment's rendered table at a reduced trace length (the scorecard's
table carries its verdicts).  ``tests/test_golden.py`` recomputes both
and compares; any change to what the simulator computes shows up there.

After a change that is *meant* to move results, rewrite the file and
review its diff::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict

from repro.config import FaultConfig

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "GOLDEN.json"

#: The reference cold cell (bench, scheme, per-core length, cores, seed).
REFERENCE_CELL = {
    "bench": "mcf",
    "scheme": "LazyC+PreRead",
    "length": 1200,
    "cores": 4,
    "seed": 1,
}
#: Experiment scale: small enough that the whole sweep runs serially in
#: about 15 s on a 2-CPU host.
SWEEP_ENV = {"REPRO_TRACE_LEN": "60", "REPRO_CORES": "8"}

#: Fault intensities of the fault tests and the stress scheme pins (fault
#: seed 0).  ``STRESS_FAULTS`` is calibrated so Poisson stuck-cell counts
#: routinely exceed ECP-6 capacity (driving ``ECPExhaustedError``) and
#: drift routinely overflows LazyCorrection.
LIGHT_FAULTS = FaultConfig(
    stuck_cells_per_line=0.5,
    drift_flip_prob=0.002,
    ecp_entry_failure_prob=0.02,
)
STRESS_FAULTS = FaultConfig(
    stuck_cells_per_line=8.0,
    drift_flip_prob=0.02,
    ecp_entry_failure_prob=0.3,
)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """sha256 of every field of a ``SimulationResult``, counters included."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True,
                         separators=(",", ":"))
    return sha256_text(payload)


def reference_cell_digest() -> str:
    from repro.core import schemes
    from repro.experiments.common import cell, run_cells

    ref = REFERENCE_CELL
    spec = cell(ref["bench"], schemes.lazyc_preread(), length=ref["length"],
                cores=ref["cores"], seed=ref["seed"])
    return result_digest(run_cells([spec])[0])


def experiment_digests() -> Dict[str, str]:
    """sha256 of each experiment's rendered table; needs ``SWEEP_ENV`` set."""
    from repro.experiments.runner import EXPERIMENTS

    return {name: sha256_text(fn().render()) for name, fn in EXPERIMENTS.items()}


def compute() -> dict:
    """The golden document for the current sources.

    Expects ``SWEEP_ENV`` in the environment and a serial runner
    installed (``engine.configure(jobs=1)``).
    """
    return {
        "reference_cell": dict(REFERENCE_CELL, sha256=reference_cell_digest()),
        "experiments": dict(env=SWEEP_ENV, sha256=experiment_digests()),
    }


def render(golden: dict) -> str:
    return json.dumps(golden, indent=2, sort_keys=True) + "\n"


def main() -> int:
    import tempfile

    from repro.perf import engine

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(SWEEP_ENV)
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        engine.configure(jobs=1)
        try:
            text = render(compute())
        finally:
            engine.reset()
    GOLDEN_PATH.write_text(text)
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
