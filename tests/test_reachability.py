"""Every module, function, class, method and option under ``src/repro`` is used.

The three scans parse the sources with :mod:`ast` (nothing is imported).

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

The option scan reuses the definition scan's roots and reached set. An
option is a defaulted parameter (positional or keyword-only) of a reached
top-level function or method, or a public field of a reached dataclass with a
plain default that ``src/`` does not assign after construction
(``default_factory`` containers, ``init=False`` fields and assigned fields
are state, not settings). Reached code or a root file sets an option when it

* passes its name as a keyword argument, unless the value is a parameter of
  the enclosing function that is itself unset (forwarding: ``f(x=x)`` sets
  nothing until the enclosing ``x`` is set, iterated to a fixed point);
* calls the function or class by name with enough positional arguments (the
  same forwarding rule applies to each), or with ``*args``;
* writes a string constant equal to its name (the ``fixed`` and ``axes`` dict
  keys, ``--param`` names); an identifier inside a longer string is not one;
* passes the dataclass to ``fields(...)``: the command line sets every
  ``ScenarioConfig`` and ``TrustParameters`` field by name that way.

Like the definition scan it matches names, not call targets: a keyword passed
to one callee sets every option of that name. An option nothing sets becomes
a constant, with the branches only another value could select deleted, or is
listed in :data:`OPTION_ALLOWLIST` with the reader or test it serves.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

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


class _Scan(NamedTuple):
    definitions: Dict[str, _Definition]
    roots: Set[str]
    #: The import-time code of every module and the root files' syntax trees.
    entry_code: List[ast.AST]


@functools.lru_cache(maxsize=None)
def _scan_definitions() -> _Scan:
    """Every definition, the root identifiers and the code that runs without a call."""
    definitions: Dict[str, _Definition] = {}
    roots: Set[str] = set()
    entry_code: List[ast.AST] = []
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
        entry_code += import_time
    for directory in ROOT_DIRECTORIES:
        for path in sorted((REPO / directory).rglob("*")):
            if path.suffix in (".py", ".sh"):
                text = path.read_text()
                roots.update(_IDENTIFIER.findall(text))
                if path.suffix == ".py":
                    tree = ast.parse(text, str(path))
                    _blank_docstrings(tree)
                    entry_code.append(tree)
    return _Scan(definitions, roots, entry_code)


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
    definitions, roots, _ = _scan_definitions()
    reached = _reachable(definitions, roots)
    unreached = set(definitions) - reached
    assert unreached == set(DEFINITION_ALLOWLIST), (
        f"unreached and not allowlisted: {sorted(unreached - set(DEFINITION_ALLOWLIST))}; "
        f"allowlisted but reached: {sorted(set(DEFINITION_ALLOWLIST) - unreached)}")


class _Option(NamedTuple):
    """A defaulted parameter or a defaulted dataclass field."""

    #: The key of the function or dataclass that takes it.
    owner: str
    name: str
    #: The name a call to the owner uses: the function, or the class.
    callee: str
    #: Its index among the positional arguments a call passes, if it has one.
    position: Optional[int]

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.name}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef, classes: Dict[str, ast.ClassDef]
                      ) -> Iterator[Tuple[str, Optional[ast.expr]]]:
    """(name, default) of each field ``__init__`` takes, in order: the fields
    of the dataclasses in ``classes`` it derives from come first."""
    for base in node.bases:
        base_node = classes.get(getattr(base, "id", ""))
        if base_node is not None and _is_dataclass(base_node):
            yield from _dataclass_fields(base_node, classes)
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        default = statement.value
        if (isinstance(default, ast.Call) and getattr(default.func, "id", None) == "field"):
            settings = {k.arg: k.value for k in default.keywords}
            init = settings.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            default = settings.get("default")  # a default_factory is state
        yield statement.target.id, default


def _assigned_attributes() -> Set[str]:
    """Every attribute name ``src/`` stores other than on ``self`` in ``__init__``."""
    names: Set[str] = set()
    for tree, _ in _parse_sources().values():
        constructors = [node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)
                        and node.name in ("__init__", "__post_init__")]
        in_constructor = {id(target) for node in constructors for target in ast.walk(node)
                          if isinstance(target, ast.Attribute)
                          and getattr(target.value, "id", None) == "self"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and id(node) not in in_constructor):
                names.add(node.attr)
    return names


def _options(definitions: Dict[str, _Definition], reached: Set[str]) -> Dict[str, _Option]:
    """Every option of a reached definition, by key."""
    options: List[_Option] = []
    assigned = _assigned_attributes()
    classes = {d.name: d.node for d in definitions.values()
               if isinstance(d.node, ast.ClassDef)}
    for key in sorted(reached):
        node = definitions[key].node
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                # A derived dataclass's inherited fields are its base's options.
                in_order = list(_dataclass_fields(node, classes))
                first_own = len(in_order) - len(list(_dataclass_fields(node, {})))
                for position, (name, default) in enumerate(in_order[first_own:], first_own):
                    if (default is not None and not name.startswith("_")
                            and name not in assigned):
                        options.append(_Option(key, name, node.name, position))
            continue
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        is_method = "." in key.split(":")[1]
        if is_method and not any(getattr(d, "id", None) == "staticmethod"
                                 for d in node.decorator_list):
            positional = positional[1:]
        callee = key.split(":")[1].split(".")[0] if node.name == "__init__" else node.name
        first_default = len(positional) - len(arguments.defaults)
        for position, argument in enumerate(positional):
            if position >= first_default:
                options.append(_Option(key, argument.arg, callee, position))
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is not None:
                options.append(_Option(key, argument.arg, callee, None))
    return {option.key: option for option in options}


class _Setters:
    """What the entry code does that can set an option, with its conditions.

    A condition is ``None`` (it sets) or the key of an option of the enclosing
    definition that the value forwards: it sets only if that option is set.
    """

    def __init__(self) -> None:
        self.strings: Set[str] = set()
        self.keywords: Dict[str, List[Optional[str]]] = {}
        #: Callee name -> one list of argument conditions per call; a starred
        #: argument sets every position from its own on.
        self.positional: Dict[str, List[Tuple[List[Optional[str]], bool]]] = {}
        self.fields_of: Set[str] = set()

    def add(self, code: ast.AST, forwarded: Dict[str, str]) -> None:
        """Record ``code``, whose names in ``forwarded`` are the enclosing options."""

        def condition(value: ast.expr) -> Optional[str]:
            return forwarded.get(value.id) if isinstance(value, ast.Name) else None

        # ``__slots__`` names attributes; it sets nothing.
        slots = {id(constant) for node in ast.walk(code) if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == "__slots__"
                         for target in node.targets)
                 for constant in ast.walk(node.value)}
        for node in ast.walk(code):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in slots):
                self.strings.add(node.value)
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg:
                    self.keywords.setdefault(keyword.arg, []).append(condition(keyword.value))
            callee = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if callee.startswith("__"):
                continue  # ``super().__init__``: the keywords name what it sets
            if callee == "fields" and node.args:
                target = node.args[0]
                self.fields_of.add(getattr(target, "id", getattr(target, "attr", "")))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            arguments = [condition(a) for a in node.args if not isinstance(a, ast.Starred)]
            self.positional.setdefault(callee, []).append((arguments, starred))


def _unset_options() -> Set[str]:
    """The keys of the options no entry code sets."""
    definitions, roots, entry_code = _scan_definitions()
    reached = _reachable(definitions, roots)
    options = _options(definitions, reached)
    by_owner: Dict[str, Dict[str, str]] = {}
    for option in options.values():
        by_owner.setdefault(option.owner, {})[option.name] = option.key
    setters = _Setters()
    for code in entry_code:
        setters.add(code, {})
    for key in reached:
        node = definitions[key].node
        if not isinstance(node, ast.ClassDef):
            setters.add(node, by_owner.get(key, {}))
    is_set: Set[str] = set()

    def sets(condition: Optional[str]) -> bool:
        return condition is None or condition in is_set

    def option_is_set(option: _Option) -> bool:
        if option.name in setters.strings or option.callee in setters.fields_of:
            return True
        if any(sets(c) for c in setters.keywords.get(option.name, ())):
            return True
        if option.position is None:
            return False
        for arguments, starred in setters.positional.get(option.callee, ()):
            if option.position < len(arguments):
                if sets(arguments[option.position]):
                    return True
            elif starred:
                return True
        return False

    changed = True
    while changed:
        newly = {key for key, option in options.items()
                 if key not in is_set and option_is_set(option)}
        is_set |= newly
        changed = bool(newly)
    return set(options) - is_set


_ALWAYS_ZERO = (
    "always 0 (the medium has no collision model and nothing is unroutable); "
    "perfbench's digest payload reads it (perfbench/workloads.py)")

#: ``module:qualified name.option`` -> why it stays although no entry point
#: sets it.
OPTION_ALLOWLIST: Dict[str, str] = {
    "repro.netsim.stats:MediumStatistics.frames_collided": _ALWAYS_ZERO,
    "repro.netsim.stats:MediumStatistics.frames_unroutable": _ALWAYS_ZERO,
    "repro.logs.store:LogStore.__init__.max_records":
        "ROADMAP item 9 (a long cell in flat memory) plans to build the "
        "victim's store with it; tests/test_logs_store.py pins the ring it "
        "turns on",
}


def test_every_option_is_set_by_an_entry_point():
    unset = _unset_options()
    assert unset == set(OPTION_ALLOWLIST), (
        f"unset and not allowlisted: {sorted(unset - set(OPTION_ALLOWLIST))}; "
        f"allowlisted but set: {sorted(set(OPTION_ALLOWLIST) - unset)}")


def test_every_allowlist_entry_states_its_reason():
    for key, reason in {**ALLOWLIST, **DEFINITION_ALLOWLIST, **OPTION_ALLOWLIST}.items():
        assert reason.strip(), key
