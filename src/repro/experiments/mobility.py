"""Mobility-impact experiment (the paper's stated future work).

Section VII announces "more experiences ... to evaluate the impact of mobility
on trustworthiness evaluation".  This module provides that experiment: the
full-stack MANET scenario is run with random-waypoint mobility at increasing
speeds, and the experiment measures how node movement degrades the
investigation (unreachable responders, missing answers) and how the detection
aggregate and the attacker's trust respond.

The sweep executes on the engine's ``netsim`` backend
(:func:`repro.experiments.backends.run_netsim_cell` over
:func:`repro.experiments.scenario.build_manet_scenario`) — the same substrate
the ``campaign`` experiment uses — rather than scenario code of its own, so
loss models, attack variants and every other netsim axis compose with the
speed sweep for free.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult


def mobility_run(max_speed: float, result: ExperimentResult) -> Dict[str, object]:
    """Summarise one netsim run into its mobility row (raw values; the report
    formatter owns rounding).

    ``result`` is the backend's record stream: one record per detection
    cycle, with the attacker's answers and the count of unreachable
    responders attached to the cycles where the attacker was investigated.
    """
    attacker_records = [r for r in result.rounds if r.detect_value is not None]
    total_answers = sum(len(r.answers) for r in attacker_records)
    missing_answers = sum(
        1 for r in attacker_records for v in r.answers.values() if v == 0.0)
    unreached = sum(r.unreached for r in attacker_records)

    last_snapshot = result.rounds[-1].trust_snapshot if result.rounds else {}
    return {
        "max_speed_m_s": max_speed,
        "cycles": len(attacker_records),
        "attacker_investigated": bool(attacker_records),
        "final_detect": (attacker_records[-1].detect_value
                         if attacker_records else None),
        "attacker_trust": last_snapshot.get(result.attacker,
                                            result.config.trust.default_trust),
        "unreached_ratio": (unreached / total_answers) if total_answers else 0.0,
        "missing_answer_ratio": (missing_answers / total_answers) if total_answers else 0.0,
    }


def _mobility_rows(spec: ExperimentSpec,
                   result: ExperimentResult) -> List[Dict[str, object]]:
    return [mobility_run(float(spec.param("max_speed", 0.0)), result)]


#: Engine registration: the random-waypoint speed sweep on the full MANET
#: stack (netsim default; the oracle backend has no motion, so running this
#: spec there degenerates to identical static cells).  Initial trust is
#: fixed: the sweep measures mobility's impact, and random per-node starting
#: values would add variance unrelated to the speed axis.
MOBILITY_EXPERIMENT = register(ExperimentDefinition(
    name="mobility",
    description="impact of random-waypoint mobility on the detection (Sec. VII)",
    rows_from_result=_mobility_rows,
    axes={"max_speed": (0.0, 2.0, 5.0, 10.0)},
    fixed={
        "total_nodes": 16,
        "liar_count": 4,
        "area_size": 800.0,
        "radio_range": 250.0,
        "warmup": 35.0,
        "attack_start": 40.0,
        "cycles": 8,
        "cycle_length": 10.0,
        "random_initial_trust": False,
    },
    default_backend="netsim",
    base_seed=23,
    report_title="Mobility — investigation degradation vs node speed",
))
