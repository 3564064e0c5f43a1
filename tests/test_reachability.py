"""Every module, function, class and method under ``src/repro`` is reachable.

Both scans parse the sources with :mod:`ast` (nothing is imported).

The module scan walks out from ``repro.experiments.__main__``, the one entry
point:

* every ``import`` and ``from … import`` statement is an edge, at any depth
  (function-local imports included);
* a string literal naming a ``repro`` module is an edge too, which covers the
  lazy registry that imports by name (the engine's ``_BUILTIN_MODULES``);
* a name imported from a package resolves to the submodule that defines it,
  following the package's re-exports;
* a package ``__init__`` reaches nothing: a re-export alone keeps no module
  alive.

A module nothing reaches is either deleted or listed in :data:`ALLOWLIST`
with the reason it stays; today nothing is listed.

The definition scan covers the top-level functions and classes of every
module and the methods of top-level classes. Its roots are

* the import-time code of every module: module-level statements other than
  imports and ``__all__``, decorators, default values evaluated at
  definition, class bases and keywords, and class-body statements other than
  methods (the experiment registry lives there);
* the names in ``repro.__all__``;
* every identifier in the sources of ``perfbench/`` (its tracer hooks
  methods by name), ``examples/`` (README's tour) and ``scripts/`` (the
  smokes).

Tests and benches are not roots. A reached function or method reaches every
identifier it names, annotations included (names, attribute names,
keyword-argument names, imported names and the identifiers inside string
literals other than docstrings); a reached class reaches its dunder methods,
and its other methods only by name. A name reaches every definition of that
name, so an attribute call reaches every method with that name. Docstrings
and comments reach nothing.

A definition nothing reaches is deleted, moved under ``tests/``, or listed in
:data:`DEFINITION_ALLOWLIST` with the test it serves.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOT = "repro.experiments.__main__"
ROOT_DIRECTORIES = ("perfbench", "examples", "scripts")

#: Module name -> why it stays although the command line never reaches it.
ALLOWLIST: Dict[str, str] = {}

_PER_RECEIVER_LOSS = (
    "tests/reference/medium.py's per-receiver medium draws each receiver's loss "
    "through it, the oracle tests/test_netsim_batch_parity.py pins the "
    "medium's batched draws to")

#: ``module:qualified name`` -> why it stays although only tests reach it.
DEFINITION_ALLOWLIST: Dict[str, str] = {
    "repro.netsim.engine:Simulator.drain":
        "README documents it; tests/test_netsim_engine_parity.py drains the "
        "queue to check that pushes equal pops",
    "repro.netsim.engine:Simulator.queued_entries":
        "the engine accounting identity (pushes equal pops plus cancelled "
        "skips plus queued entries) in tests/test_netsim_engine_parity.py and "
        "tests/test_netsim_calls_per_frame.py counts the queued entries",
    "repro.netsim.engine:Simulator.pending_events":
        "tests/test_netsim_engine.py checks with it that cancelled events "
        "never run",
    "repro.netsim.medium:LossModel.is_lost": _PER_RECEIVER_LOSS,
    "repro.netsim.medium:PerfectChannel.is_lost": _PER_RECEIVER_LOSS,
    "repro.netsim.medium:BernoulliLossModel.is_lost": _PER_RECEIVER_LOSS,
    "repro.netsim.medium:DistanceLossModel.is_lost": _PER_RECEIVER_LOSS,
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


class _Definition:
    """One top-level function or class, or one method of a top-level class."""

    def __init__(self, key: str, node: ast.AST):
        self.key = key
        self.node = node
        self.name = node.name
        self.methods: List[_Definition] = []


def _blank_docstrings(tree: ast.AST) -> None:
    """Empty every docstring in ``tree``: docstrings reach nothing."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef) + _FUNCTIONS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                first.value.value = ""


def _identifiers(nodes) -> Iterator[str]:
    """Every identifier the given syntax trees name."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.keyword) and node.arg:
                yield node.arg
            elif isinstance(node, ast.alias):
                yield from (node.asname or node.name).split(".")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from _IDENTIFIER.findall(node.value)


def _import_time(node: ast.AST) -> List[ast.AST]:
    """What Python evaluates when it executes the definition ``node``."""
    evaluated = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        evaluated += node.bases + node.keywords
    else:
        evaluated += node.args.defaults + [d for d in node.args.kw_defaults if d]
    return evaluated


def _scan_definitions() -> Tuple[Dict[str, _Definition], Set[str]]:
    """(``module:qualified name`` -> definition, the root identifiers)."""
    definitions: Dict[str, _Definition] = {}
    roots: Set[str] = set()
    for module, (tree, _) in _parse_sources().items():
        _blank_docstrings(tree)
        import_time: List[ast.AST] = []
        for statement in tree.body:
            if isinstance(statement, (ast.ClassDef,) + _FUNCTIONS):
                top = _Definition(f"{module}:{statement.name}", statement)
                definitions[top.key] = top
                import_time += _import_time(statement)
                if isinstance(statement, ast.ClassDef):
                    for member in statement.body:
                        if isinstance(member, _FUNCTIONS):
                            method = _Definition(f"{top.key}.{member.name}", member)
                            definitions[method.key] = method
                            top.methods.append(method)
                            import_time += _import_time(member)
                        else:
                            import_time.append(member)
            elif isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            elif (isinstance(statement, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in statement.targets)):
                if module == "repro":
                    roots.update(ast.literal_eval(statement.value))
            else:
                import_time.append(statement)
        roots.update(_identifiers(import_time))
    for directory in ROOT_DIRECTORIES:
        for path in sorted((REPO / directory).rglob("*")):
            if path.suffix in (".py", ".sh"):
                roots.update(_IDENTIFIER.findall(path.read_text()))
    return definitions, roots


def _reachable(definitions: Dict[str, _Definition], roots: Set[str]) -> Set[str]:
    """The keys of the definitions the root identifiers reach."""
    by_name: Dict[str, List[_Definition]] = {}
    for definition in definitions.values():
        by_name.setdefault(definition.name, []).append(definition)
    reached: Set[str] = set()
    names_seen: Set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name in names_seen:
            continue
        names_seen.add(name)
        frontier = list(by_name.get(name, ()))
        while frontier:
            definition = frontier.pop()
            if definition.key in reached:
                continue
            reached.add(definition.key)
            if isinstance(definition.node, ast.ClassDef):
                frontier += [m for m in definition.methods
                             if m.name.startswith("__") and m.name.endswith("__")]
            else:
                pending += _identifiers([definition.node])
    return reached


def test_every_definition_is_reachable_from_an_entry_point():
    definitions, roots = _scan_definitions()
    reached = _reachable(definitions, roots)
    unreached = set(definitions) - reached
    assert unreached == set(DEFINITION_ALLOWLIST), (
        f"unreached and not allowlisted: {sorted(unreached - set(DEFINITION_ALLOWLIST))}; "
        f"allowlisted but reached: {sorted(set(DEFINITION_ALLOWLIST) - unreached)}")


def test_every_allowlist_entry_states_its_reason():
    for key, reason in {**ALLOWLIST, **DEFINITION_ALLOWLIST}.items():
        assert reason.strip(), key
