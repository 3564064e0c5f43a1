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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult


@dataclass
class MobilityRunResult:
    """Outcome of one mobility configuration."""

    max_speed: float
    detection_cycles: int
    attacker_investigated: bool
    final_detect: Optional[float]
    final_attacker_trust: Optional[float]
    unreached_ratio: float
    missing_answer_ratio: float

    def as_dict(self) -> Dict[str, object]:
        """Flat row for tabular output (raw values; the report formatter
        owns rounding)."""
        return {
            "max_speed_m_s": self.max_speed,
            "cycles": self.detection_cycles,
            "attacker_investigated": self.attacker_investigated,
            "final_detect": self.final_detect,
            "attacker_trust": self.final_attacker_trust,
            "unreached_ratio": self.unreached_ratio,
            "missing_answer_ratio": self.missing_answer_ratio,
        }


@dataclass
class MobilityStudyResult:
    """All rows of the mobility sweep."""

    runs: List[MobilityRunResult] = field(default_factory=list)

    def as_rows(self) -> List[Dict[str, object]]:
        """One row per mobility configuration."""
        return [run.as_dict() for run in self.runs]

    def detection_degrades_with_speed(self) -> bool:
        """Whether missing-answer ratios are (weakly) increasing with speed."""
        ratios = [run.missing_answer_ratio for run in self.runs]
        return all(b >= a - 0.05 for a, b in zip(ratios, ratios[1:]))


def mobility_run(max_speed: float, result: ExperimentResult) -> MobilityRunResult:
    """Summarise one netsim run into its mobility row.

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
    final_trust = last_snapshot.get(result.attacker,
                                    result.config.trust.default_trust)
    return MobilityRunResult(
        max_speed=max_speed,
        detection_cycles=len(attacker_records),
        attacker_investigated=bool(attacker_records),
        final_detect=(attacker_records[-1].detect_value
                      if attacker_records else None),
        final_attacker_trust=final_trust,
        unreached_ratio=(unreached / total_answers) if total_answers else 0.0,
        missing_answer_ratio=(missing_answers / total_answers) if total_answers else 0.0,
    )


def run_mobility_study(
    speeds: Sequence[float] = (0.0, 2.0, 5.0, 10.0),
    seed: int = 23,
    node_count: int = 16,
    liar_count: int = 4,
    area_size: float = 800.0,
    radio_range: float = 250.0,
    warmup: float = 35.0,
    attack_start: float = 40.0,
    cycles: int = 8,
    cycle_length: float = 10.0,
) -> MobilityStudyResult:
    """Run the mobility sweep and return one row per maximum speed."""
    from repro.experiments.backends import run_netsim_cell

    result = MobilityStudyResult()
    for max_speed in speeds:
        # Fixed initial trust: the sweep measures mobility's impact, and
        # random per-node starting values would add variance unrelated to
        # the speed axis.
        config = ScenarioConfig(total_nodes=node_count, liar_count=liar_count,
                                seed=seed, random_initial_trust=False)
        run = run_netsim_cell(config, {
            "max_speed": max_speed,
            "area_size": area_size,
            "radio_range": radio_range,
            "warmup": warmup,
            "attack_start": attack_start,
            "cycles": cycles,
            "cycle_length": cycle_length,
        })
        result.runs.append(mobility_run(max_speed, run))
    return result


def _mobility_rows(spec: ExperimentSpec,
                   result: ExperimentResult) -> List[Dict[str, object]]:
    return [mobility_run(float(spec.param("max_speed", 0.0)), result).as_dict()]


#: Engine registration: the random-waypoint speed sweep on the full MANET
#: stack (netsim default; the oracle backend has no motion, so running this
#: spec there degenerates to identical static cells).
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
