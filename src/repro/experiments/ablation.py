"""Ablation / baseline comparison (table B of DESIGN.md).

Every method receives the *exact same* investigation answers, round by round,
produced by the paper's scenario (liars confirm the spoofed link, honest
responders deny it, some answers may be lost).  Compared methods:

* ``trust-weighted`` — the paper's Eq. 8 aggregate with the entropy trust
  system (as produced by the round driver);
* ``unweighted-vote`` — plain mean of the answers (no trust system);
* ``cap-olsr`` — entropy trust from raw observation counts (no liar
  discounting);
* ``beta-reputation`` — Bayesian Beta reputation with deviation test;
* ``report-averaging`` — cumulative average of all reports ever received.

The comparison metric is the round at which each method first classifies the
attacker as an intruder, plus its final score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.averaging import AveragingTrustSystem
from repro.baselines.beta_reputation import BetaReputationSystem
from repro.baselines.cap_olsr import CapOlsrDetector
from repro.core.decision import DecisionOutcome, decide, unweighted_vote
from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult
from repro.trust.confidence import margin_of_error


@dataclass
class MethodTrajectory:
    """Score trajectory and detection round of one compared method."""

    method: str
    scores: List[float] = field(default_factory=list)
    detection_round: Optional[int] = None
    final_score: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for tabular output (raw values; the report
        formatter owns rounding)."""
        return {
            "method": self.method,
            "detection_round": self.detection_round,
            "final_score": self.final_score,
            "rounds": len(self.scores),
        }


def answers_to_bools(answers: Dict[str, float]) -> Dict[str, Optional[bool]]:
    """Convert ±1/0 investigation answers to the baselines' bool interface."""
    converted: Dict[str, Optional[bool]] = {}
    for responder, value in answers.items():
        if value > 0:
            converted[responder] = True
        elif value < 0:
            converted[responder] = False
        else:
            converted[responder] = None
    return converted


def replay_methods(run: ExperimentResult) -> Dict[str, MethodTrajectory]:
    """Replay one experiment's answer stream through every compared method.

    The run may come from either backend — the oracle round loop or the full
    netsim scenario — since both record the per-round answers the replay
    consumes.
    """
    config = run.config
    attacker = run.attacker

    ours = MethodTrajectory(method="trust-weighted")
    unweighted = MethodTrajectory(method="unweighted-vote")
    cap = MethodTrajectory(method="cap-olsr")
    beta = MethodTrajectory(method="beta-reputation")
    averaging = MethodTrajectory(method="report-averaging")

    cap_detector = CapOlsrDetector(owner=run.investigator, exclusion_threshold=0.0)
    beta_system = BetaReputationSystem(owner=run.investigator)
    averaging_system = AveragingTrustSystem(owner=run.investigator)

    for record in run.rounds:
        if record.detect_value is None:
            continue
        round_index = record.round_index
        bool_answers = answers_to_bools(record.answers)

        # Paper's method: already evaluated by the round driver.
        ours.scores.append(record.detect_value)
        if ours.detection_round is None and record.outcome == DecisionOutcome.INTRUDER:
            ours.detection_round = round_index

        # Unweighted vote with the same decision rule.
        vote = unweighted_vote(record.answers)
        unweighted.scores.append(vote)
        margin = margin_of_error(list(record.answers.values()), config.confidence_level)
        if (
            unweighted.detection_round is None
            and decide(vote, margin, gamma=config.gamma) == DecisionOutcome.INTRUDER
        ):
            unweighted.detection_round = round_index

        # CAP-OLSR: entropy trust from cumulative counts.
        cap_score = cap_detector.process_round(attacker, bool_answers)
        cap.scores.append(cap_score)
        if cap.detection_round is None and cap_detector.classify(attacker) == "intruder":
            cap.detection_round = round_index

        # Beta reputation.
        beta_score = beta_system.process_round(attacker, bool_answers)
        beta.scores.append(beta_score)
        if beta.detection_round is None and beta_system.classify(attacker) == "intruder":
            beta.detection_round = round_index

        # Plain report averaging.
        avg_score = averaging_system.process_round(attacker, bool_answers)
        averaging.scores.append(avg_score)
        if (
            averaging.detection_round is None
            and averaging_system.classify(attacker) == "intruder"
        ):
            averaging.detection_round = round_index

    for trajectory in (ours, unweighted, cap, beta, averaging):
        trajectory.final_score = trajectory.scores[-1] if trajectory.scores else None

    return {t.method: t for t in (ours, unweighted, cap, beta, averaging)}


def _ablation_rows(spec: ExperimentSpec,
                   result: ExperimentResult) -> List[Dict[str, object]]:
    methods = replay_methods(result)
    return [methods[name].as_dict() for name in sorted(methods)]


#: Engine registration: one scenario run, every method replayed on its
#: answer stream (single cell).
ABLATION_EXPERIMENT = register(ExperimentDefinition(
    name="ablation",
    description="trust weighting vs related-work baselines on one answer stream",
    rows_from_result=_ablation_rows,
    report_title="Ablation — detection round and final score per method",
))
