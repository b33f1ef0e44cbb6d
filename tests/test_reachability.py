"""Every module and every definition under ``src/repro`` is used.

A module or a definition stays only if something runnable needs it.
Runnable means the entry points (``repro.cli``, ``repro.__main__`` and
``repro.experiments.runner``) plus every file under ``examples/``,
``benchmarks/`` and ``perfbench/``, which CI and the benchmark run.
Tests are not callers: a helper only tests call is dead.

The module walk starts at the entry points and at the imports of those
files, and follows every ``import`` in a reached module, function-level
ones included (the kernel backends are imported lazily inside
``repro.pcm.kernels``).  A package ``__init__``'s own top-level imports
are re-exports, not uses, so they are not followed: a module that only
its package re-exports is dead.

The name walk then checks every function, method and class of a reached
module (dunders excepted).  A definition is used when its name appears
as an ``ast.Name``, an ``ast.Attribute`` or an imported name in a
runnable file, or in a reached module outside its own body and outside
every other dead definition; dead definitions are found to a fixpoint.
Names are matched bare, so a use of any attribute ``x.lookup`` keeps
every method called ``lookup``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent

ENTRY_POINTS = ("repro.cli", "repro.__main__", "repro.experiments.runner")

#: Directories of runnable files outside the package.
CALLER_DIRS = ("examples", "benchmarks", "perfbench")

#: Definitions only tests use, each with the reason it stays.  Only a
#: reference implementation that tests compare against, or an invariant
#: checker or state observer a property test needs, belongs here.
ALLOWED_UNUSED = {
    "repro.pcm.line._scalar_bit_positions": "reference implementation "
    "the kernel equivalence tests compare bit_positions_int against",
    "repro.pcm.array.PCMArray.disturbed_lines": "state observer: the VnC "
    "and integration property tests assert no line is left disturbed",
    "repro.pcm.array.PCMArray.check_invariants": "invariant checker of the "
    "stored & disturbed == 0 property",
    "repro.alloc.buddy.BuddyAllocator.check_invariants": "invariant checker "
    "the buddy and (n:m) allocator property tests run after every script",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_files() -> Dict[str, Path]:
    """Dotted module name -> source file, for every module in the package."""
    modules = {}
    for path in SRC.rglob("*.py"):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def caller_files() -> List[Path]:
    """The runnable files outside the package."""
    return sorted(p for d in CALLER_DIRS for p in (REPO / d).rglob("*.py"))


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
    for path in caller_files():
        todo.extend(imported_names("", path))
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


Use = Tuple[str, FrozenSet[str]]  # (name, qualified definitions enclosing it)


def scan(path: Path, module: str, definitions: Dict[str, str]) -> List[Use]:
    """Record ``module``'s definitions (qualified name -> bare name) into
    ``definitions`` and return every name use with its enclosing
    definitions.  A package's top-level imports are re-exports: skipped.
    An empty ``module`` scans a caller file, whose definitions are not
    checked."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reexports = path.name == "__init__.py"
    uses: List[Use] = []

    def visit(node: ast.AST, qual: str, inside: FrozenSet[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if (reexports and node is tree
                    and isinstance(child, (ast.Import, ast.ImportFrom))):
                continue
            if isinstance(child, _DEFINITIONS):
                name = f"{qual}.{child.name}"
                if module and not (child.name.startswith("__")
                                   and child.name.endswith("__")):
                    definitions[name] = child.name
                visit(child, name, inside | {name})
                continue
            if isinstance(child, ast.Name):
                uses.append((child.id, inside))
            elif isinstance(child, ast.Attribute):
                uses.append((child.attr, inside))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    uses.append((alias.name.rpartition(".")[2], inside))
            visit(child, qual, inside)

    visit(tree, module, frozenset())
    return uses


def unused_definitions() -> Set[str]:
    modules = module_files()
    definitions: Dict[str, str] = {}
    uses: List[Use] = []
    for module in reached():
        uses += scan(modules[module], module, definitions)
    for path in caller_files():
        uses += scan(path, "", definitions)
    by_name: Dict[str, List[FrozenSet[str]]] = {}
    for name, inside in uses:
        by_name.setdefault(name, []).append(inside)
    dead: Set[str] = set()
    while True:
        now = {
            qual for qual, name in definitions.items()
            if not any(qual not in inside and not inside & dead
                       for inside in by_name.get(name, ()))
        }
        if now == dead:
            return dead
        dead = now


def test_every_module_is_reached():
    unreached = set(module_files()) - reached()
    assert not unreached, "unreached modules: " + ", ".join(sorted(unreached))


def test_every_definition_is_used():
    dead = unused_definitions()
    unused = dead - set(ALLOWED_UNUSED)
    assert not unused, "unused definitions: " + ", ".join(sorted(unused))
    stale = set(ALLOWED_UNUSED) - dead
    assert not stale, "allowlisted but used: " + ", ".join(sorted(stale))
