"""Every module under ``src/repro`` is reached from an entry point.

A module stays only if something a user can run needs it.  The walk
starts at ``repro.cli``, ``repro.__main__`` and
``repro.experiments.runner`` and follows every ``import`` in a reached
module, function-level ones included (the kernel backends are imported
lazily inside ``repro.pcm.kernels``).  A package ``__init__``'s own
top-level imports are re-exports, not uses, so they are not followed:
a module that only its package re-exports is dead.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Set

import repro

SRC = Path(repro.__file__).resolve().parent

ENTRY_POINTS = ("repro.cli", "repro.__main__", "repro.experiments.runner")

#: Modules no entry point imports, each with the reason it stays.
ALLOWED_UNREACHED = {
    "repro.perf.planner": "perfbench and the BENCH_* host stamps import "
    "host_fingerprint from it",
}


def module_files() -> Dict[str, Path]:
    """Dotted module name -> source file, for every module in the package."""
    modules = {}
    for path in SRC.rglob("*.py"):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(name: str, path: Path) -> Iterator[str]:
    """Dotted names a module may import.

    ``from .x import y`` yields both ``pkg.x`` and ``pkg.x.y`` (``y`` may
    be a submodule); the caller keeps the names that are modules.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    is_package = path.name == "__init__.py"
    package = name if is_package else name.rpartition(".")[0]
    skip = set(tree.body) if is_package else set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                if node.module:
                    base.append(node.module)
                target = ".".join(base)
            else:
                target = node.module or ""
            yield target
            for alias in node.names:
                yield f"{target}.{alias.name}"


def reached() -> Set[str]:
    modules = module_files()
    seen: Set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        # Importing a module imports every package above it.
        parent = name.rpartition(".")[0]
        if parent:
            todo.append(parent)
        todo.extend(imported_names(name, modules[name]))
    return seen


def test_every_module_is_reached():
    unreached = set(module_files()) - reached()
    assert sorted(unreached) == sorted(ALLOWED_UNREACHED)
