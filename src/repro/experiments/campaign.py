"""Detector vs related-work baselines over full-stack MANET scenario grids.

The paper's claims rest on its trust-weighted cooperative investigation
judging a link-spoofing attacker better than related-work schemes that see
the same evidence.  This experiment sweeps that comparison across network
configurations on the engine's ``netsim`` backend.  One cell is one
scenario — node count × liar fraction × loss model × mobility × attack
variant × repetition, each with its own stable seed — and it emits one row
per system (:data:`SYSTEMS`):

* ``detector`` — the paper's aggregate (Eq. 8) and decision rule, read from
  the round records and the investigator's last trust snapshot;
* the baselines of :mod:`repro.baselines` — the answers of the attacker's
  investigation rounds are replayed through each baseline's
  ``process_round`` adapter, so every system judges the identical evidence
  of one simulation.

Run it like any other experiment::

    python -m repro.experiments run campaign \
        --axis total_nodes=8,16 --axis liar_fraction=0.0,0.25 \
        --axis loss_probability=0.0,0.2 --axis max_speed=0,5 \
        --workers 4 --db campaign.sqlite --resume

:func:`repro.experiments.report.aggregate_rows` gives per-system means over
the rows (see ``examples/campaign_sweep.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.averaging import AveragingTrustSystem
from repro.baselines.beta_reputation import BetaReputationSystem
from repro.baselines.cap_olsr import CapOlsrDetector
from repro.baselines.watchdog import WatchdogPathrater
from repro.core.decision import DecisionOutcome
from repro.core.signatures import LinkSpoofingVariant
from repro.experiments.ablation import answers_to_bools
from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult

#: Systems judged in every cell: the paper's detector plus the related-work
#: baselines re-implemented in :mod:`repro.baselines`.
SYSTEMS = ("detector", "watchdog", "beta", "cap-olsr", "averaging")

#: Factories building the per-cell baseline adapter for one investigating
#: node.  Every adapter exposes ``process_round(suspect, answers) -> score``
#: and ``classify(suspect) -> "intruder" | "well-behaving"``.
_BASELINE_FACTORIES = {
    "watchdog": lambda owner: WatchdogPathrater(owner=owner),
    "beta": lambda owner: BetaReputationSystem(owner=owner),
    "cap-olsr": lambda owner: CapOlsrDetector(owner=owner),
    "averaging": lambda owner: AveragingTrustSystem(owner=owner),
}


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _campaign_rows(spec: ExperimentSpec,
                   result: ExperimentResult) -> List[Dict[str, object]]:
    """One row per system; values are raw (the report formatter rounds)."""
    attacker_rounds = [r for r in result.rounds if r.detect_value is not None]
    last = attacker_rounds[-1] if attacker_rounds else None
    snapshot = result.rounds[-1].trust_snapshot if result.rounds else {}
    default_trust = result.config.trust.default_trust

    def trust_of(node: str) -> float:
        return snapshot.get(node, default_trust)

    scenario = {
        "nodes": result.config.total_nodes,
        "variant": spec.param("attack_variant"),
        "loss": f"{spec.param('loss_model')}:{spec.param('loss_probability'):g}",
        "speed": spec.param("max_speed"),
        "liar_fraction": spec.param("liar_fraction"),
        "seed": spec.seed,
        "investigated": last is not None,
        "cycles": len(attacker_rounds),
    }
    substrate = {
        "frames_sent": result.stats.get("frames_sent"),
        "frames_delivered": result.stats.get("frames_delivered"),
        "events": result.stats.get("events_processed"),
    }
    rows = [{
        "system": "detector",
        **scenario,
        # Stored as 0/1 so aggregates read as detection rates.
        "flagged": int(last is not None and last.outcome == DecisionOutcome.INTRUDER),
        "final_detect": last.detect_value if last is not None else None,
        "attacker_trust": trust_of(result.attacker),
        "liar_trust": _mean([trust_of(n) for n in sorted(result.liars)]),
        "honest_trust": _mean([trust_of(n) for n in sorted(result.honest_responders)]),
        **substrate,
    }]
    for system, factory in _BASELINE_FACTORIES.items():
        adapter = factory(result.investigator)
        score: Optional[float] = None
        for record in attacker_rounds:
            score = adapter.process_round(result.attacker,
                                          answers_to_bools(record.answers))
        # Baselines keep no per-responder trust — that is the paper's
        # differentiator — so the liar/honest trust columns stay empty.
        rows.append({
            "system": system,
            **scenario,
            "flagged": int(last is not None
                           and adapter.classify(result.attacker) == "intruder"),
            "final_detect": None,
            "attacker_trust": score,
            "liar_trust": None,
            "honest_trust": None,
            **substrate,
        })
    return rows


#: Engine registration.  The fixed trust parameters are the library
#: defaults (``TrustParameters()``: no trust floor, no slow recovery) and
#: every node starts at the default trust; ``tests/golden/campaign_parity.json``
#: pins the metrics these settings give.
CAMPAIGN_EXPERIMENT = register(ExperimentDefinition(
    name="campaign",
    description="detector vs related-work baselines over full-stack scenario grids",
    rows_from_result=_campaign_rows,
    axes={
        "total_nodes": (16,),
        "liar_fraction": (0.25,),
        "loss_model": ("bernoulli",),
        "loss_probability": (0.0,),
        "max_speed": (0.0,),
        "attack_variant": (str(LinkSpoofingVariant.FALSE_EXISTING_LINK),),
        "repetition": (0,),
    },
    fixed={
        "cycles": 5,
        "random_initial_trust": False,
        "trust_minimum": 0.0,
        "trust_beta_recovery": None,
    },
    default_backend="netsim",
    seed_mode="per-cell",
    report_title="Campaign — detector vs baselines, one row per system and scenario",
))
