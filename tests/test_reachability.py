"""Every module under ``src/repro`` is reachable from the command line.

The scan parses the sources with :mod:`ast` (nothing is imported) and walks
out from ``repro.experiments.__main__``, the one entry point:

* every ``import`` and ``from … import`` statement is an edge, at any depth
  (function-local imports included);
* a string literal naming a ``repro`` module is an edge too, which covers the
  lazy registry that imports by name (the engine's ``_BUILTIN_MODULES``);
* a name imported from a package resolves to the submodule that defines it,
  following the package's re-exports;
* a package ``__init__`` reaches nothing: a re-export alone keeps no module
  alive.

A module nothing reaches is either deleted or listed in :data:`ALLOWLIST`
with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
ROOT = "repro.experiments.__main__"

ALLOWLIST = {
    "repro.trust.propagation": (
        "paper Eqs. 6-7 (trust propagation along recommendation paths); "
        "wiring or deleting a paper equation is a fidelity decision"),
}


def _parse_sources() -> Dict[str, Tuple[ast.Module, bool]]:
    """Module name -> (syntax tree, is a package ``__init__``)."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        modules[".".join(parts)] = (ast.parse(path.read_text(), str(path)), is_package)
    return modules


def _definer(modules, package: str, name: str) -> str:
    """The module defining ``name`` as imported from ``package``."""
    if f"{package}.{name}" in modules:
        return f"{package}.{name}"
    tree, is_package = modules[package]
    if is_package:
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module in modules:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _definer(modules, node.module, alias.name)
    return package


def _edges(modules, module: str) -> Set[str]:
    tree, is_package = modules[module]
    if is_package:
        return set()
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in modules:
            targets.update(_definer(modules, node.module, alias.name)
                           for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            targets.add(node.value)
    return targets & modules.keys()


def test_every_module_is_reachable_from_the_cli():
    modules = _parse_sources()
    reached, frontier = {ROOT}, [ROOT]
    while frontier:
        for target in _edges(modules, frontier.pop()) - reached:
            reached.add(target)
            frontier.append(target)
    unreached = {name for name, (_, is_package) in modules.items()
                 if not is_package and name not in reached}
    assert unreached == set(ALLOWLIST)
