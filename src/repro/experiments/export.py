"""Machine-readable export of experiment results.

The text tables are for humans; downstream tooling (plotting scripts,
regression dashboards) wants JSON.  ``to_json``/``write_json`` serialise an
:class:`~repro.experiments.common.ExperimentResult` with full fidelity:
title, headers, rows, metrics, and notes.  The runner exposes this via
``python -m repro.experiments.runner --json <dir> <names...>``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .common import ExperimentResult

PathLike = Union[str, Path]


def to_dict(result: ExperimentResult) -> dict:
    """Plain-dict form of a result (JSON-ready)."""
    return {
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "metrics": dict(result.metrics),
        "notes": list(result.notes),
    }


def to_json(result: ExperimentResult, indent: int = 2) -> str:
    return json.dumps(to_dict(result), indent=indent, sort_keys=False)


def write_json(result: ExperimentResult, path: PathLike) -> Path:
    """Write a result to ``path``; returns the resolved path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json(result) + "\n")
    return path
