"""Confidence-level / γ sweep (extension table A of DESIGN.md).

Section IV-C of the paper introduces the confidence interval and the
three-way decision rule but shows no dedicated figure; this sweep quantifies
the mechanism: for every (confidence level, γ) pair it reports how many
rounds the investigation needs before the decision becomes conclusive and
whether the final verdict is correct.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.decision import DecisionOutcome
from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult


def sweep_row(confidence_level: float, gamma: float,
              run: ExperimentResult) -> Dict[str, object]:
    """Summarise one (confidence level, γ) run into its sweep row.

    The suspect is always a genuine attacker, so the correct verdict is
    :data:`DecisionOutcome.INTRUDER`.  Values are *raw* — the report
    formatter owns rounding.
    """
    rounds_to_decision: Optional[int] = None
    final_outcome: Optional[DecisionOutcome] = None
    final_detect: Optional[float] = None
    final_margin: Optional[float] = None
    for record in run.rounds:
        if record.outcome is None:
            continue
        final_outcome = record.outcome
        final_detect = record.detect_value
        final_margin = record.margin
        if rounds_to_decision is None and record.outcome != DecisionOutcome.UNRECOGNIZED:
            rounds_to_decision = record.round_index
    return {
        "confidence_level": confidence_level,
        "gamma": gamma,
        "rounds_to_decision": rounds_to_decision,
        "final_outcome": str(final_outcome) if final_outcome else None,
        "final_detect": final_detect,
        "final_margin": final_margin,
        "verdict_correct": final_outcome == DecisionOutcome.INTRUDER,
    }


def _confidence_rows(spec: ExperimentSpec,
                     result: ExperimentResult) -> List[Dict[str, object]]:
    return [sweep_row(float(spec.param("confidence_level")),
                      float(spec.param("gamma")), result)]


#: Engine registration: the (confidence level × γ) grid, one cell per pair.
CONFIDENCE_SWEEP_EXPERIMENT = register(ExperimentDefinition(
    name="confidence_sweep",
    description="confidence level / γ sweep of the decision rule (ext. Table A)",
    rows_from_result=_confidence_rows,
    axes={"confidence_level": (0.90, 0.95, 0.99), "gamma": (0.4, 0.6, 0.8)},
    report_title="Confidence sweep — decision rule vs confidence level and γ",
))
