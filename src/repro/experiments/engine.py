"""Unified experiment engine: declarative specs, a registry, one runtime.

Every evaluation (``figure1``–``figure3``, the ablation, the confidence/γ
sweep, the gravity ablation, the mobility study, the adaptivity study and
the detector-vs-baselines ``campaign``) is a registered definition served
by this one runtime:

* :class:`ExperimentSpec` — one fully-resolved, picklable grid cell: the
  experiment name, its cell id, the stable per-cell seed, the execution
  backend and the flat ``(key, value)`` parameter tuple.  The spec is the
  unit of execution, persistence (content-hash keyed, see
  :func:`repro.experiments.results.spec_content_hash`) and resume.
* :class:`ExperimentDefinition` — the declarative description of one
  experiment: its parameter ``axes`` (the sweep), its ``fixed`` parameters,
  how to build a :class:`~repro.experiments.config.ScenarioConfig` from a
  cell and how to turn the backend's
  :class:`~repro.experiments.rounds.ExperimentResult` into flat report rows.
* a registry (:func:`register`, :func:`get_experiment`,
  :func:`list_experiments`) the CLI and the worker processes resolve names
  against.
* :func:`run_experiment` — the shared runtime: expands the axes into seeded
  cells, skips cells already present in a
  :class:`~repro.experiments.results.ResultsStore` (resume), fans the rest
  out over a :class:`~concurrent.futures.ProcessPoolExecutor`
  (:func:`execute_pending_cells`), commits every cell as soon as it
  completes and aggregates the rows into a deterministic report.

Backends (:mod:`repro.experiments.backends`) are pluggable per run: the same
spec can execute on the fast ``"oracle"`` round loop
(:class:`~repro.experiments.rounds.RoundBasedExperiment`) or on the
``"netsim"`` full MANET stack
(:func:`~repro.experiments.scenario.build_manet_scenario`), so every figure
can also be reproduced full-stack and every scenario axis (loss, mobility,
liar fraction) applies to every experiment.
"""

from __future__ import annotations

import itertools
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table, render_report
from repro.experiments.results import ResultsStore, spec_content_hash
from repro.seeding import stable_seed

#: Execution backends every spec can run on (see repro.experiments.backends).
BACKENDS = ("oracle", "netsim")

#: Modules whose import registers the built-in experiment definitions.  The
#: list is resolved lazily so worker processes (and ``python -m``) can
#: rebuild the registry without importing the whole package eagerly.
_BUILTIN_MODULES = (
    "repro.experiments.figure1",
    "repro.experiments.figure2",
    "repro.experiments.figure3",
    "repro.experiments.ablation",
    "repro.experiments.confidence_sweep",
    "repro.experiments.gravity_ablation",
    "repro.experiments.mobility",
    "repro.experiments.adaptivity",
    "repro.experiments.campaign",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-resolved experiment cell (picklable; safe to ship to a worker).

    ``params`` is the flat, sorted ``(name, value)`` tuple of every parameter
    the cell runs with — the swept axis values merged over the experiment's
    fixed defaults.  Together with ``seed`` and ``backend`` it fully
    determines the cell's execution, which is what makes
    :meth:`content_hash` a safe resume key.
    """

    experiment: str
    cell_id: str
    run_id: str
    seed: int
    backend: str
    params: Tuple[Tuple[str, object], ...] = ()

    def params_dict(self) -> Dict[str, object]:
        """The cell parameters as a plain dict."""
        return dict(self.params)

    def param(self, name: str, default: object = None) -> object:
        """One parameter value, with a default for absent keys."""
        return self.params_dict().get(name, default)

    def content_hash(self) -> str:
        """Content hash keying this cell in a :class:`ResultsStore`."""
        return spec_content_hash(self)


#: Builds the per-cell rows from the backend's ExperimentResult.
RowsFromResult = Callable[[ExperimentSpec, object], List[Dict[str, object]]]


@dataclass
class ExperimentDefinition:
    """Declarative description of one registered experiment.

    ``axes`` maps axis name → swept values (the cell grid is their cross
    product, in declaration order); ``fixed`` holds the non-swept parameters.
    Any fixed parameter can be promoted to an axis — and any axis overridden —
    at run time (``axes=...`` of :func:`run_experiment`, ``--axis`` on the
    CLI), which is how the netsim scenario axes (loss, mobility, liar
    fraction) apply to every experiment.

    ``rows_from_result`` turns the backend's
    :class:`~repro.experiments.rounds.ExperimentResult` into the flat,
    JSON-serialisable report rows of one cell.  ``seed_mode`` selects how the
    per-cell seed derives from the base seed: ``"shared"`` runs every cell
    on the same scenario seed, so cells differ only by their axis values
    (what the paper's sweeps compare), ``"per-cell"`` derives a distinct
    :func:`~repro.seeding.stable_seed` per cell id (what replications want).
    """

    name: str
    description: str
    rows_from_result: RowsFromResult
    axes: Mapping[str, Sequence] = field(default_factory=dict)
    fixed: Mapping[str, object] = field(default_factory=dict)
    default_backend: str = "oracle"
    base_seed: int = 7
    seed_mode: str = "shared"
    report_title: Optional[str] = None
    #: Optional hook mapping the raw cell parameters to the executable ones
    #: (e.g. figure3 turns its ``liar_ratio`` axis label into a liar count).
    resolve_params: Optional[Callable[[Dict[str, object]], Dict[str, object]]] = None

    def __post_init__(self) -> None:
        if self.default_backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.default_backend!r}")
        if self.seed_mode not in ("shared", "per-cell"):
            raise ValueError(f"unknown seed mode {self.seed_mode!r}")

    # ------------------------------------------------------------ expansion
    def expand(
        self,
        backend: Optional[str] = None,
        base_seed: Optional[int] = None,
        axes: Optional[Mapping[str, Sequence]] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> List[ExperimentSpec]:
        """The cell grid as fully-resolved, seeded specs (declaration order).

        ``axes`` overrides (or adds) swept axes; ``params`` overrides fixed
        parameters; ``backend``/``base_seed`` override the definition's
        defaults.  Expansion order is deterministic — the cross product in
        axis declaration order — and the engine preserves it when reporting,
        so reports are byte-identical across runs, worker counts and resumes.
        """
        merged_axes: Dict[str, Sequence] = dict(self.axes)
        if axes:
            self._check_override_names(axes, merged_axes, kind="axis")
            for name, values in axes.items():
                merged_axes[name] = tuple(values)
        if params:
            self._check_override_names(params, merged_axes, kind="parameter")
            shadowed = sorted(set(params) & set(merged_axes))
            if shadowed:
                raise ValueError(
                    f"{', '.join(shadowed)} is a swept axis of "
                    f"{self.name!r}; override it as an axis "
                    f"(axes= / --axis), not as a fixed parameter")
        backend = backend or self.default_backend
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        seed0 = self.base_seed if base_seed is None else base_seed

        specs: List[ExperimentSpec] = []
        names = list(merged_axes)
        for combo in itertools.product(*(merged_axes[n] for n in names)):
            cell = dict(zip(names, combo))
            cell_id = "-".join(
                f"{n}={_format_axis_value(v)}" for n, v in cell.items()
            ) or "default"
            merged: Dict[str, object] = dict(self.fixed)
            if params:
                merged.update(params)
            merged.update(cell)
            if merged.get("profile"):
                # Resolve the scenario profile NOW, not at execution: the
                # expanded parameters enter the spec (and therefore its
                # content hash, so editing a profile invalidates stored
                # cells instead of silently resuming them), and a typo'd
                # profile name fails the whole expansion up front.
                from repro.scenarios import apply_profile

                merged = apply_profile(merged)
            seed = (seed0 if self.seed_mode == "shared"
                    else stable_seed(seed0, f"{self.name}/{cell_id}"))
            specs.append(ExperimentSpec(
                experiment=self.name,
                cell_id=cell_id,
                run_id=f"{self.name}/{cell_id}",
                seed=seed,
                backend=backend,
                params=tuple(sorted(merged.items())),
            ))
        return specs

    def _check_override_names(self, overrides: Mapping[str, object],
                              merged_axes: Mapping[str, Sequence],
                              kind: str) -> None:
        """Reject override names no backend or definition would consume.

        A typo'd name would otherwise run silently with defaults *and*
        pollute the spec content hash, breaking the later resume of the
        correctly-spelled run.
        """
        from repro.experiments.backends import is_known_param

        known = set(merged_axes) | set(self.fixed)
        for name in overrides:
            if name in known or is_known_param(name):
                continue
            raise ValueError(
                f"unknown {kind} {name!r} for experiment {self.name!r} "
                f"(declared: {', '.join(sorted(known)) or 'none'}; plus any "
                f"ScenarioConfig field, netsim knob or trust_<TrustParameters "
                f"field>)")


def _format_axis_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


# ---------------------------------------------------------------- registry
_REGISTRY: Dict[str, ExperimentDefinition] = {}


def register(definition: ExperimentDefinition) -> ExperimentDefinition:
    """Register (or replace) an experiment definition; returns it."""
    _REGISTRY[definition.name] = definition
    return definition


#: Whether :func:`_ensure_builtin_experiments` has imported every module.
_builtins_imported = False


def _ensure_builtin_experiments() -> None:
    """Import the built-in experiment modules, once per process.

    Registration happens at module import; this hook lets worker processes
    and the CLI resolve names without importing :mod:`repro.experiments`
    eagerly.
    """
    global _builtins_imported
    if _builtins_imported:
        return
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_imported = True


def get_experiment(name: str) -> ExperimentDefinition:
    """Look up a registered experiment by name."""
    _ensure_builtin_experiments()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown experiment {name!r} (registered: {known})") from None


def list_experiments() -> List[ExperimentDefinition]:
    """Every registered experiment, sorted by name."""
    _ensure_builtin_experiments()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def expand_experiment(
    name: str,
    backend: Optional[str] = None,
    base_seed: Optional[int] = None,
    axes: Optional[Mapping[str, Sequence]] = None,
    params: Optional[Mapping[str, object]] = None,
) -> Tuple[ExperimentDefinition, List[ExperimentSpec], List[str]]:
    """Resolve a named experiment into its seeded cell grid plus hashes.

    The front half of :func:`run_experiment`, also used by callers that
    time or inspect a grid without running it: the cells come in expansion
    order, each keyed by the content hash a results store files it under.
    """
    definition = get_experiment(name)
    specs = definition.expand(backend=backend, base_seed=base_seed,
                              axes=axes, params=params)
    hashes = [spec.content_hash() for spec in specs]
    return definition, specs, hashes


# ----------------------------------------------------------------- runtime
def cell_config(spec: ExperimentSpec) -> Tuple[Dict[str, object], ScenarioConfig]:
    """A cell's resolved parameters and its validated ``ScenarioConfig``.

    Raises ``ValueError`` for a parameter value the configuration or the
    netsim backend rejects, without running anything, so callers can check
    a grid up front.
    """
    from repro.experiments.backends import check_netsim_params, scenario_config_from_params

    definition = get_experiment(spec.experiment)
    params = spec.params_dict()
    if definition.resolve_params is not None:
        params = definition.resolve_params(dict(params))
    check_netsim_params(params)
    return params, scenario_config_from_params(params, spec.seed)


def execute_cell(spec: ExperimentSpec) -> List[Dict[str, object]]:
    """Run one cell end to end (the process-pool worker entry point)."""
    from repro.experiments.backends import execute_backend

    params, config = cell_config(spec)
    result = execute_backend(spec.backend, config, params)
    return get_experiment(spec.experiment).rows_from_result(spec, result)


def execute_pending_cells(
    pending: Sequence[Tuple[object, str]],
    execute: Callable[[object], object],
    finish: Callable[[object, str, object], None],
    workers: Optional[int] = None,
) -> None:
    """The engine's fan-out loop.

    ``pending`` is a list of ``(payload, digest)`` cells; ``execute`` runs in
    the worker (must be a picklable module-level callable when ``workers`` >
    1); ``finish(payload, digest, result)`` runs in the parent as each cell
    completes — in completion order, not submission order, so a store-backed
    caller that commits from ``finish`` loses only in-flight cells on a kill.

    Any exception — a ``KeyboardInterrupt`` (Ctrl-C, or one raised out of a
    worker) or a cell that raises — exits *gracefully*: queued cells are
    cancelled, cells that already completed are still committed through
    ``finish``, and the exception is re-raised — so an interrupted or failed
    ``--db`` run resumes cleanly with exactly the finished cells stored.
    Only cells in flight at that moment are lost.
    """
    if workers is not None and workers > 1 and len(pending) > 1:
        max_workers = min(workers, len(pending))
        with ProcessPoolExecutor(max_workers=max_workers) as executor:
            futures = {executor.submit(execute, payload): (payload, digest)
                       for payload, digest in pending}
            remaining = set(futures)
            finished = set()
            try:
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in done:
                        payload, digest = futures[future]
                        result = future.result()
                        finish(payload, digest, result)
                        finished.add(future)
            except BaseException:
                for future in futures:
                    if future not in finished:
                        future.cancel()
                # Commit every cell that finished but was not folded in yet;
                # ``finish`` (a store commit) is idempotent per digest.
                for future, (payload, digest) in futures.items():
                    if future in finished or not future.done() or future.cancelled():
                        continue
                    if future.exception() is None:
                        finish(payload, digest, future.result())
                executor.shutdown(wait=False, cancel_futures=True)
                raise
    else:
        for payload, digest in pending:
            finish(payload, digest, execute(payload))


@dataclass
class ExperimentRunResult:
    """All rows of one engine run, with resume-aware reporting helpers.

    Rows stream in *cell expansion order* (the declaration order of the
    axes), never in completion order: an in-memory run, a parallel run and a
    store-resumed run all produce byte-identical reports.  Cells not yet
    executed (budgeted runs) are simply absent from the stream.
    """

    definition: ExperimentDefinition
    specs: List[ExperimentSpec]
    hashes: List[str]
    rows_by_hash: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    store: Optional[ResultsStore] = None
    #: Cells actually executed by this invocation (run ids).
    executed_run_ids: List[str] = field(default_factory=list)
    #: Cells found already completed in the store and skipped (run ids).
    skipped_run_ids: List[str] = field(default_factory=list)

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """Stream the flat rows of every completed cell, in expansion order."""
        for digest in self.hashes:
            rows = self.rows_by_hash.get(digest)
            if rows is None and self.store is not None:
                rows = self.store.get_row(digest)
            if rows is not None:
                yield from rows

    def rows(self) -> List[Dict[str, object]]:
        """Every completed cell's rows as one flat list."""
        return list(self.iter_rows())

    def cells(self) -> int:
        """Number of cells in the expanded grid."""
        return len(self.specs)

    def format_report(self) -> str:
        """Deterministic plain-text report (no timestamps, no wall-clock)."""
        backend = self.specs[0].backend if self.specs else self.definition.default_backend
        title = (self.definition.report_title
                 or f"{self.definition.name} — {self.definition.description}")
        rows = self.rows()
        return render_report([format_table(
            rows,
            title=f"{title}\n[{len(rows)} rows from {self.cells()} cells, "
                  f"backend={backend}]",
        )])


def run_experiment(
    name: str,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    store: Optional[ResultsStore] = None,
    resume: bool = True,
    max_new_runs: Optional[int] = None,
    base_seed: Optional[int] = None,
    axes: Optional[Mapping[str, Sequence]] = None,
    params: Optional[Mapping[str, object]] = None,
) -> ExperimentRunResult:
    """Run a registered experiment through the shared runtime.

    Expands the definition's axes into seeded cells, skips cells whose
    content hash is already in ``store`` (``resume``), executes the rest —
    across ``workers`` processes when > 1 — and commits each completed cell
    to the store the moment it finishes.  ``max_new_runs`` bounds how many
    *missing* cells this invocation executes (budgeted/chunked execution);
    pass ``0`` to re-aggregate a stored run without executing anything.
    Because every cell derives all randomness from its own stable seed, the
    returned report is identical whichever execution mode produced it.
    """
    if max_new_runs is not None and max_new_runs < 0:
        raise ValueError(f"max_new_runs must be non-negative, got {max_new_runs}")
    definition, specs, hashes = expand_experiment(
        name, backend=backend, base_seed=base_seed, axes=axes, params=params)

    completed = set()
    if store is not None and resume:
        completed = store.completed_hashes(hashes)
    pending = [(spec, digest) for spec, digest in zip(specs, hashes)
               if digest not in completed]
    skipped = [spec.run_id for spec, digest in zip(specs, hashes)
               if digest in completed]
    if max_new_runs is not None:
        pending = pending[:max_new_runs]

    result = ExperimentRunResult(
        definition=definition,
        specs=specs,
        hashes=hashes,
        store=store,
        executed_run_ids=sorted(spec.run_id for spec, _ in pending),
        skipped_run_ids=sorted(skipped),
    )

    def _finish(spec: ExperimentSpec, digest: str,
                rows: List[Dict[str, object]]) -> None:
        if store is not None:
            store.record(spec, rows, spec_hash=digest)
        result.rows_by_hash[digest] = rows

    execute_pending_cells(pending, execute_cell, _finish, workers=workers)
    return result
