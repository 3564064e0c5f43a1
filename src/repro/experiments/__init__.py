"""Experiment harness reproducing the paper's evaluation (Section V).

Architecture — spec / registry / backend layering
-------------------------------------------------
Every experiment is three declarative layers deep, all served by one runtime:

1. **Spec** — an :class:`~repro.experiments.engine.ExperimentDefinition`
   declares the experiment's parameter ``axes`` and ``fixed`` parameters; the
   engine expands the cross product into frozen, content-hashable
   :class:`~repro.experiments.engine.ExperimentSpec` cells with stable
   per-cell seeds.  The spec is the unit of execution, persistence and
   resume.
2. **Registry** — each experiment module registers its definition at
   import (:func:`~repro.experiments.engine.register`); the CLI
   (``python -m repro.experiments``), the worker processes and callers
   resolve names through :func:`~repro.experiments.engine.get_experiment` /
   :func:`~repro.experiments.engine.list_experiments`, which import the
   built-in experiment modules on first lookup.
3. **Backend** — each cell executes on a pluggable substrate
   (:mod:`repro.experiments.backends`): ``"oracle"`` runs the paper's
   round-based loop (:class:`~repro.experiments.rounds.RoundBasedExperiment`),
   ``"netsim"`` the full MANET stack
   (:func:`~repro.experiments.scenario.build_manet_scenario`).  Both return
   the same :class:`~repro.experiments.rounds.ExperimentResult`, so every
   figure can also run full-stack and every scenario axis (loss, mobility,
   liar fraction) applies to every experiment.

The shared runtime (:func:`~repro.experiments.engine.run_experiment`) gives
all of them process-pool fan-out, SQLite content-hash resume
(:mod:`repro.experiments.results`) and deterministic streaming reports
(:mod:`repro.experiments.report`).

Modules
-------
* :mod:`repro.experiments.engine` — spec, registry, runner (the runtime).
* :mod:`repro.experiments.backends` — oracle / netsim execution backends.
* :mod:`repro.experiments.config` — scenario parameters (paper defaults).
* :mod:`repro.experiments.rounds` — the round-based investigation driver.
* :mod:`repro.experiments.figure1` — trust trajectories under a persistent
  attack (paper Figure 1).
* :mod:`repro.experiments.figure2` — forgetting-factor recovery after the
  attack ceases (paper Figure 2).
* :mod:`repro.experiments.figure3` — liar-ratio sweep of the detection
  aggregate (paper Figure 3).
* :mod:`repro.experiments.confidence_sweep` — confidence level / γ sweep
  (extension Table A).
* :mod:`repro.experiments.ablation` — trust weighting vs. baselines
  (extension Table B).
* :mod:`repro.experiments.gravity_ablation` — evidence-gravity sweep.
* :mod:`repro.experiments.mobility` — mobility impact (netsim backend).
* :mod:`repro.experiments.adaptivity` — static vs adaptive adversaries.
* :mod:`repro.experiments.campaign` — the detector against the related-work
  baselines over node count × loss × mobility × attack variant × liar
  fraction grids (netsim backend, one row per system).
* :mod:`repro.experiments.scenario` — full-stack simulated MANET scenarios.
* :mod:`repro.experiments.results` — SQLite-backed, resumable results store
  (content-hash keyed, WAL journal, streaming aggregation).
* :mod:`repro.experiments.report` — plain-text tables and sparklines.

Two sibling packages build on the engine: :mod:`repro.scenarios` (the
registry of composable scenario profiles — sweepable on every experiment
through the ``profile`` parameter — plus the seeded scenario fuzzer) and
:mod:`repro.validation` (structural invariants over netsim runs and the
oracle↔netsim differential harness).

Command line: ``python -m repro.experiments`` with the subcommands ``list``,
``run <experiment>``, ``report``, ``validate`` and ``attack-search``.
"""

from repro.experiments.config import ScenarioConfig
from repro.experiments.engine import (
    ExperimentDefinition,
    ExperimentRunResult,
    ExperimentSpec,
    get_experiment,
    list_experiments,
    register,
    run_experiment,
)
from repro.experiments.report import (
    aggregate_rows,
    format_series,
    format_table,
    format_trajectories,
    render_report,
    sparkline,
)
from repro.experiments.results import ResultsStore, spec_content_hash
from repro.experiments.rounds import (
    ExperimentResult,
    RoundBasedExperiment,
    RoundRecord,
)
from repro.experiments.scenario import (
    CANONICAL_POSITIONS,
    SimulationScenario,
    build_canonical_scenario,
    build_manet_scenario,
)

__all__ = [
    "CANONICAL_POSITIONS",
    "ResultsStore",
    "aggregate_rows",
    "spec_content_hash",
    "ExperimentDefinition",
    "ExperimentResult",
    "ExperimentRunResult",
    "ExperimentSpec",
    "RoundBasedExperiment",
    "RoundRecord",
    "ScenarioConfig",
    "SimulationScenario",
    "build_canonical_scenario",
    "build_manet_scenario",
    "format_series",
    "format_table",
    "format_trajectories",
    "get_experiment",
    "list_experiments",
    "register",
    "render_report",
    "run_experiment",
    "sparkline",
]
