"""Results are pinned to the committed ``GOLDEN.json``.

Every other "byte-identical" test compares two execution paths within
one run; this one compares against a committed anchor, so a change that
shifts every path at once still fails here.  Regenerate the file with
``PYTHONPATH=src python tests/golden.py`` only for a reviewed change to
results.
"""

from __future__ import annotations

import json

from repro.perf import engine

from . import golden


def test_results_match_golden(monkeypatch):
    for key in golden.SWEEP_ENV:
        monkeypatch.setenv(key, golden.SWEEP_ENV[key])
    engine.configure(jobs=1)
    expected = json.loads(golden.GOLDEN_PATH.read_text())
    actual = golden.compute()
    assert actual["reference_cell"] == expected["reference_cell"]
    assert actual["experiments"]["env"] == expected["experiments"]["env"]
    mismatched = sorted(
        name
        for name in expected["experiments"]["sha256"].keys()
        | actual["experiments"]["sha256"].keys()
        if expected["experiments"]["sha256"].get(name)
        != actual["experiments"]["sha256"].get(name)
    )
    assert not mismatched, f"experiment tables differ from GOLDEN.json: {mismatched}"
