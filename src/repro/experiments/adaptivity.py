"""Adaptivity experiment: time-to-detect vs adversary adaptivity.

The paper evaluates its detector against *open-loop* adversaries only; this
experiment (the repo's novel extension, named on the ROADMAP) sweeps the
adversary's adaptivity tier instead:

* ``static`` — the paper's adversary: permanent spoofing, every liar lies.
* ``throttling`` — a threshold rider: the attacker observes its own trust
  (as the investigator scores it, through a read-only
  :class:`~repro.attacks.adaptive.TrustProbe`) and pauses its misconduct
  whenever that trust nears the classification threshold, resuming once the
  forgetting factor restores headroom.
* ``rotating`` — a rotating liar clique: one active liar per round/epoch,
  the rest honest.  Each liar takes one disagreement evidence per rotation
  and agreement evidence in the rounds between, so its direct trust (the
  Eq. 8 weight of its answers) stays high.

Rows report when the investigator durably *distrusts* the attacker (trust
at or below :data:`DISTRUST_THRESHOLD`), when the decision rule first says
INTRUDER, and how the liars fare — the adaptive tiers trade attack volume
for longevity, so the interesting columns are the detection delays.

Both backends implement every tier: the oracle round loop natively
(``ScenarioConfig.adaptivity``), the netsim stack through the
``throttling-grayhole``/``rotating-clique`` threat compositions
(:func:`resolve_adaptivity_params` maps the axis value to the matching
threat, so ``--backend netsim`` just works).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.decision import DecisionOutcome
from repro.experiments.engine import (
    ExperimentDefinition,
    ExperimentSpec,
    register,
)
from repro.experiments.rounds import ExperimentResult

#: Trust level at/below which the investigator counts as having classified
#: the attacker (the "distrusted" line of the time-to-detect metric).  Sits
#: below the throttling adversary's default riding band
#: (``riding_threshold`` = 0.32), which is exactly what threshold riding
#: exploits.
DISTRUST_THRESHOLD = 0.25

#: Adaptivity tier → netsim threat composition implementing it.
ADAPTIVITY_THREATS = {
    "static": "link-spoofing",
    "throttling": "throttling-grayhole",
    "rotating": "rotating-clique",
}


def resolve_adaptivity_params(params: Dict[str, object]) -> Dict[str, object]:
    """Map the ``adaptivity`` axis onto the backend parameters.

    The oracle backend consumes ``adaptivity`` directly (a
    ``ScenarioConfig`` field); the netsim backend expresses the tier as a
    threat composition, defaulted here so an explicit ``--param threat=...``
    still wins.
    """
    mode = str(params.get("adaptivity", "static"))
    if mode not in ADAPTIVITY_THREATS:
        raise ValueError(
            f"unknown adaptivity {mode!r} "
            f"(expected one of {', '.join(sorted(ADAPTIVITY_THREATS))})")
    resolved = dict(params)
    resolved.setdefault("threat", ADAPTIVITY_THREATS[mode])
    return resolved


def time_to_distrust(result: ExperimentResult) -> Optional[int]:
    """Rounds until the investigator's trust in the attacker reaches
    :data:`DISTRUST_THRESHOLD` (1-based; ``None`` = the attacker survived
    the run)."""
    for record in result.rounds:
        snapshot = record.trust_snapshot
        if snapshot and snapshot.get(result.attacker, 1.0) <= DISTRUST_THRESHOLD:
            return record.round_index + 1
    return None


def _rows(spec: ExperimentSpec, result: ExperimentResult) -> List[Dict[str, object]]:
    rounds = result.rounds
    investigated = [r for r in rounds if r.detect_value is not None]
    first_intruder = next(
        (r.round_index + 1 for r in rounds
         if r.outcome == DecisionOutcome.INTRUDER), None)
    attacker_curve = [r.trust_snapshot.get(result.attacker)
                      for r in rounds if r.trust_snapshot]
    attacker_curve = [v for v in attacker_curve if v is not None]
    liar_finals = []
    if rounds and rounds[-1].trust_snapshot:
        final_snapshot = rounds[-1].trust_snapshot
        liar_finals = [final_snapshot[liar] for liar in sorted(result.liars)
                       if liar in final_snapshot]
    return [{
        "adaptivity": str(spec.param("adaptivity", "static")),
        "rounds": len(rounds),
        "investigated": len(investigated),
        "time_to_distrust": time_to_distrust(result),
        "first_intruder_round": first_intruder,
        "final_attacker_trust": (round(attacker_curve[-1], 4)
                                 if attacker_curve else None),
        "min_attacker_trust": (round(min(attacker_curve), 4)
                               if attacker_curve else None),
        "liars_distrusted": sum(1 for v in liar_finals
                                if v <= DISTRUST_THRESHOLD),
        "min_liar_trust": (round(min(liar_finals), 4)
                           if liar_finals else None),
    }]


ADAPTIVITY_EXPERIMENT = register(ExperimentDefinition(
    name="adaptivity",
    description="time-to-detect vs adversary adaptivity (novel extension)",
    rows_from_result=_rows,
    axes={"adaptivity": ("static", "throttling", "rotating")},
    fixed={
        "rounds": 40,
        "total_nodes": 16,
        "liar_count": 4,
        # Deterministic starting point: every node at the default trust, so
        # the riding dynamics are about the feedback loop, not the draw.
        "random_initial_trust": False,
        # Netsim-backend pacing (ignored by the oracle): enough post-attack
        # cycles for the threat compositions to express themselves.
        "cycles": 8,
        "cycle_length": 10.0,
        "warmup": 35.0,
        "attack_start": 40.0,
    },
    resolve_params=resolve_adaptivity_params,
    default_backend="oracle",
    base_seed=29,
    report_title="Adaptivity — time-to-detect vs adversary adaptivity",
))
