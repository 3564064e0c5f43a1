"""Pluggable execution backends of the experiment engine.

Every :class:`~repro.experiments.engine.ExperimentSpec` executes on one of
two interchangeable substrates, both returning the same
:class:`~repro.experiments.rounds.ExperimentResult` so the per-experiment
row logic never cares which one produced the data:

* ``"oracle"`` — the paper's round-based evaluation loop
  (:class:`~repro.experiments.rounds.RoundBasedExperiment`): every responder
  answers through an oracle transport, one investigation round per
  experiment round.  Fast, fully controlled; this is what the paper's
  figures use.
* ``"netsim"`` — the full MANET stack
  (:func:`~repro.experiments.scenario.build_manet_scenario`): OLSR over the
  spatial-indexed wireless medium, the link-spoofing attack, colluding
  liars, the log analyzer raising E1 and the cooperative investigation
  querying 2-hop neighbours over suspect-avoiding paths.  One detection
  cycle per experiment round; mobility, channel loss and attack variants
  actually happen.

Netsim-only parameters (``area_size``, ``radio_range``, ``warmup``,
``attack_start``, ``cycles``, ``cycle_length``, ``loss_model``,
``loss_probability``, ``max_speed``, ``attack_variant``, ``mobility_model``,
``threat``, ``drop_probability``) are carried in the spec's flat parameter
tuple and ignored by the oracle backend, so any spec can switch backends
without being rewritten.  A parameter no backend consumes is rejected, and
so is a numeric netsim parameter out of its range or a named one
(``loss_model``, ``mobility_model``, ``threat``, ``attack_variant``) that
``build_manet_scenario`` does not know (:func:`check_netsim_params`).  The
engine-level ``profile`` parameter names a registered scenario profile
(:mod:`repro.scenarios`) whose parameters are merged under the cell's own
before execution.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from typing import Mapping

from repro.core.detector_node import DetectionConfig
from repro.core.signatures import LinkSpoofingVariant
from repro.experiments.config import ScenarioConfig
from repro.experiments.rounds import (
    ExperimentResult,
    RoundBasedExperiment,
    RoundRecord,
)
from repro.experiments.scenario import (
    LOSS_MODELS,
    MOBILITY_MODELS,
    THREATS,
    build_manet_scenario,
)
from repro.trust.manager import TrustParameters

#: ScenarioConfig fields a spec parameter may set directly (by field name).
_CONFIG_FIELDS = frozenset(
    f.name for f in fields(ScenarioConfig) if f.name not in ("seed", "trust")
)

#: TrustParameters fields settable through ``trust_``-prefixed parameters
#: (e.g. ``trust_alpha_harmful`` → ``TrustParameters.alpha_harmful``).
_TRUST_PREFIX = "trust_"
_TRUST_PARAMS = frozenset(_TRUST_PREFIX + f.name for f in fields(TrustParameters))

#: Netsim-backend knobs a spec parameter may set (ignored by the oracle
#: backend).  The engine validates override names against this set plus the
#: ScenarioConfig fields, so typos fail fast instead of running silently
#: with defaults.
NETSIM_PARAMS = frozenset((
    "area_size", "radio_range", "warmup", "attack_start", "cycles",
    "cycle_length", "loss_model", "loss_probability", "max_speed",
    "attack_variant", "mobility_model", "threat", "drop_probability",
))

#: Interval of each real-valued netsim parameter: (low, low excluded, high).
#: Every value must also be finite.
_NETSIM_RANGES = {
    "area_size": (0.0, True, math.inf),
    "radio_range": (0.0, True, math.inf),
    "warmup": (0.0, False, math.inf),
    "attack_start": (0.0, False, math.inf),
    "cycle_length": (0.0, True, math.inf),
    "max_speed": (0.0, False, math.inf),
    "loss_probability": (0.0, False, 1.0),
    "drop_probability": (0.0, False, 1.0),
}

#: Names each string-valued netsim parameter accepts: the tables
#: ``build_manet_scenario`` picks its models, threats and attack variants
#: from.
_NETSIM_CHOICES = {
    "loss_model": LOSS_MODELS,
    "mobility_model": MOBILITY_MODELS,
    "threat": THREATS,
    "attack_variant": tuple(str(variant) for variant in LinkSpoofingVariant),
}

#: Parameters consumed by the engine itself rather than a backend.
#: ``profile`` names a registered scenario profile
#: (:mod:`repro.scenarios`) whose parameters are merged under the cell's
#: own at axis expansion — which makes ``--axis profile=a,b`` a sweepable
#: axis on every experiment, with the expanded parameters part of each
#: cell's content hash.
ENGINE_PARAMS = frozenset(("profile",))


def is_known_param(name: str) -> bool:
    """Whether ``name`` is a parameter some backend will actually consume."""
    return (name in _CONFIG_FIELDS or name in NETSIM_PARAMS
            or name in ENGINE_PARAMS or name in _TRUST_PARAMS)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_netsim_params(params: Mapping[str, object]) -> None:
    """Raise ``ValueError`` naming the first netsim parameter whose value
    ``build_manet_scenario`` would reject; an absent parameter takes its
    default, which is valid.

    ``cycles`` must be an integer >= 1; the other numeric ones must be
    finite numbers in their ``_NETSIM_RANGES`` interval, and each named one
    must be one of its ``_NETSIM_CHOICES`` (compared as a string, as the
    scenario reads it).
    """
    for name, choices in _NETSIM_CHOICES.items():
        if name in params and str(params[name]) not in choices:
            raise ValueError(f"{name} must be one of {', '.join(choices)}, "
                             f"got {params[name]!r}")
    for name, (low, low_excluded, high) in _NETSIM_RANGES.items():
        if name not in params:
            continue
        value = params[name]
        if (_is_number(value) and math.isfinite(value)
                and (low < value if low_excluded else low <= value) and value <= high):
            continue
        opening = "(" if low_excluded else "["
        closing = "]" if high < math.inf else ")"
        raise ValueError(
            f"{name} must be in {opening}{low:g}, {high:g}{closing}, got {value!r}")
    cycles = params.get("cycles", 1)
    if not (_is_number(cycles) and float(cycles).is_integer() and cycles >= 1):
        raise ValueError(f"cycles must be an integer >= 1, got {cycles!r}")


def scenario_config_from_params(params: Mapping[str, object],
                                seed: int) -> ScenarioConfig:
    """Build a cell's :class:`ScenarioConfig` from its flat parameters.

    Parameters named after a ``ScenarioConfig`` field map one to one;
    ``trust_``-prefixed parameters override the corresponding
    :class:`~repro.trust.manager.TrustParameters` field; everything else
    (the netsim knobs) is left for :func:`execute_backend`.  The seed always
    comes from the spec itself — it is the engine's per-cell stable seed.
    """
    config_kwargs = {name: value for name, value in params.items()
                     if name in _CONFIG_FIELDS}
    config = ScenarioConfig(seed=seed, **config_kwargs)
    trust_overrides = {
        name[len(_TRUST_PREFIX):]: value
        for name, value in params.items()
        if name.startswith(_TRUST_PREFIX)
    }
    if trust_overrides:
        config = config.with_overrides(
            trust=replace(config.trust, **trust_overrides))
    return config


def execute_backend(backend: str, config: ScenarioConfig,
                    params: Mapping[str, object]) -> ExperimentResult:
    """Run one cell on the named backend."""
    if backend == "oracle":
        return run_oracle_cell(config)
    if backend == "netsim":
        return run_netsim_cell(config, params)
    raise ValueError(f"unknown backend {backend!r}")


def run_oracle_cell(config: ScenarioConfig) -> ExperimentResult:
    """Execute the round-based (oracle-transport) evaluation loop."""
    return RoundBasedExperiment(config).run()


def build_netsim_scenario(config: ScenarioConfig,
                          params: Mapping[str, object]):
    """Build (without running) the cell's full-stack MANET scenario.

    Split out of :func:`run_netsim_cell` so callers that must instrument the
    scenario before any event fires — the validation harness installs its
    delivery auditor here — can do so and then hand the scenario to
    :func:`drive_netsim_scenario`.
    """
    check_netsim_params(params)

    def param(name, default):
        return params.get(name, default)

    attack_start = float(param("attack_start", 40.0))

    scenario = build_manet_scenario(
        node_count=config.total_nodes,
        liar_count=config.effective_liar_count(),
        seed=config.seed,
        area_size=float(param("area_size", 800.0)),
        radio_range=float(param("radio_range", 250.0)),
        loss_probability=float(param("loss_probability", 0.0)),
        attack_start=attack_start,
        detection_config=DetectionConfig(
            gamma=config.gamma,
            confidence_level=config.confidence_level,
            use_trust_weighting=config.use_trust_weighting,
            close_on_decision=config.close_on_decision,
            query_loss_probability=config.answer_loss_probability,
        ),
        attack_variant=LinkSpoofingVariant(
            param("attack_variant", str(LinkSpoofingVariant.FALSE_EXISTING_LINK))),
        loss_model=str(param("loss_model", "bernoulli")),
        max_speed=float(param("max_speed", 0.0)),
        mobility_model=str(param("mobility_model", "auto")),
        threat=str(param("threat", "link-spoofing")),
        drop_probability=float(param("drop_probability", 0.7)),
        trust_parameters=config.trust,
    )
    if config.random_initial_trust:
        # Mirror the oracle loop's "randomly set initial trust" step on the
        # investigator, so the config field means the same thing on both
        # backends (its own stable stream: independent of scenario wiring).
        import random as _random

        from repro.seeding import stable_seed

        rng = _random.Random(stable_seed(config.seed, "initial-trust"))
        victim = scenario.victim
        for node_id in sorted(scenario.nodes):
            if node_id == scenario.victim_id:
                continue
            victim.trust.set_initial_trust(
                node_id, rng.uniform(config.initial_trust_min,
                                     config.initial_trust_max))
    return scenario


def run_netsim_cell(config: ScenarioConfig,
                    params: Mapping[str, object]) -> ExperimentResult:
    """Execute the cell on the full simulated MANET.

    The scenario derives everything from the config plus the cell's netsim
    parameters; each experiment "round" is one detection cycle of
    ``cycle_length`` simulated seconds on the victim.  The resulting
    :class:`ExperimentResult` carries the same record stream as the oracle
    backend (detect values, outcomes, answers, trust snapshots) plus
    substrate statistics in :attr:`ExperimentResult.stats`.
    """
    scenario = build_netsim_scenario(config, params)
    return drive_netsim_scenario(scenario, config, params)


def drive_netsim_scenario(scenario, config: ScenarioConfig,
                          params: Mapping[str, object]) -> ExperimentResult:
    """Run the detection-cycle loop on an already-built scenario."""
    def param(name, default):
        return params.get(name, default)

    attack_start = float(param("attack_start", 40.0))
    warmup = float(param("warmup", 35.0))
    cycles = int(param("cycles", min(config.rounds, 8)))
    cycle_length = float(param("cycle_length", 10.0))

    network = scenario.network
    victim = scenario.victim
    result = ExperimentResult(
        config=config,
        investigator=scenario.victim_id,
        attacker=scenario.attacker_id,
        liars=set(scenario.liar_ids),
        honest_responders={
            nid for nid in scenario.nodes
            if nid not in scenario.liar_ids
            and nid not in (scenario.victim_id, scenario.attacker_id)
        },
        initial_trust=victim.trust.as_dict(),
    )

    scenario.warm_up(warmup)
    victim.detection_round()  # absorb convergence-era triggers

    for round_index in range(cycles):
        network.run(until=network.now + cycle_length)
        attacker_round = None
        for round_result in victim.detection_round():
            if round_result.suspect == scenario.attacker_id:
                attacker_round = round_result
        if attacker_round is not None:
            record = RoundRecord(
                round_index=round_index,
                attack_active=network.now >= attack_start,
                detect_value=attacker_round.decision.detect_value,
                outcome=attacker_round.decision.outcome,
                margin=attacker_round.decision.interval.margin,
                answers=dict(attacker_round.answers),
                unreached=len(attacker_round.responders_unreached),
            )
        else:
            record = RoundRecord(
                round_index=round_index,
                attack_active=network.now >= attack_start,
                detect_value=None,
                outcome=None,
                margin=None,
            )
        record.trust_snapshot = victim.trust.as_dict()
        result.rounds.append(record)
        # Close the feedback loop: adaptive attack layers observe the
        # detector (through their read-only trust probes) once per cycle.
        for adaptive in getattr(scenario, "adaptive_attacks", ()):
            adaptive.observe(network.now)

    result.stats = {
        "frames_sent": network.medium.stats.frames_sent,
        "frames_delivered": network.medium.stats.frames_delivered,
        # Batched deliveries run one event for many receivers; add the
        # elided per-receiver events back so the metric counts one event
        # per delivery.
        "events_processed": (network.simulator.processed_events
                             + network.medium.batched_deliveries_saved),
        # Scheduler counters (pushes/pops/cancelled_skipped).  No
        # experiment puts them in a row, so surfacing them here cannot
        # perturb report byte-identity.
        "engine": network.engine_counters(),
    }
    return result
