"""Evidence-gravity ablation (the paper's stated future work).

Section VII announces "using different weighting of the evidences according
to their gravity/reputability".  The trust system already supports per-kind
gravity weights (Property 2); this experiment quantifies their effect on the
paper's scenario by sweeping the harmful/beneficial weighting asymmetry and
reporting, for each configuration:

* how many rounds the investigation needs before the attacker is flagged,
* the final liar trust (how hard colluders are punished), and
* the final honest trust (the collateral damage of an over-aggressive
  weighting, since honest nodes occasionally end up on the minority side).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.decision import DecisionOutcome
from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult


def gravity_row(run: ExperimentResult, alpha_harmful: float,
                alpha_beneficial: float) -> Dict[str, object]:
    """Summarise one gravity-weighting run into its sweep row (raw values;
    the report formatter owns rounding)."""
    detection_round = None
    for record in run.rounds:
        if record.outcome == DecisionOutcome.INTRUDER:
            detection_round = record.round_index
            break

    # Sorted: float sums in set order would vary with PYTHONHASHSEED.
    liars = sorted(run.liars)
    honest = sorted(run.honest_responders)
    liar_finals = [run.trust_trajectory(l)[-1] for l in liars]
    honest_finals = [run.trust_trajectory(h)[-1] for h in honest]
    honest_initials = [run.initial_trust.get(h, 0.0) for h in honest]
    collateral = sum(
        max(0.0, initial - final)
        for initial, final in zip(honest_initials, honest_finals)
    ) / len(honest_finals)

    detect_values = run.detect_values()
    return {
        "alpha_harmful": alpha_harmful,
        "alpha_beneficial": alpha_beneficial,
        "asymmetry": alpha_harmful / alpha_beneficial,
        "detection_round": detection_round,
        "final_detect": detect_values[-1] if detect_values else 0.0,
        "mean_liar_trust": sum(liar_finals) / len(liar_finals),
        "mean_honest_trust": sum(honest_finals) / len(honest_finals),
        "honest_collateral": collateral,
    }


def _gravity_rows(spec: ExperimentSpec,
                  result: ExperimentResult) -> List[Dict[str, object]]:
    return [gravity_row(result,
                        float(spec.param("trust_alpha_harmful")),
                        float(spec.param("trust_alpha_beneficial")))]


#: Engine registration: the harmful-weight sweep, one cell per α⁻ (the
#: ``trust_`` prefix routes the axis into ``TrustParameters``).
GRAVITY_ABLATION_EXPERIMENT = register(ExperimentDefinition(
    name="gravity_ablation",
    description="evidence-gravity weighting sweep (paper Sec. VII future work)",
    rows_from_result=_gravity_rows,
    axes={"trust_alpha_harmful": (0.02, 0.04, 0.08, 0.16)},
    fixed={"trust_alpha_beneficial": 0.04},
    report_title="Gravity ablation — harmful/beneficial weighting asymmetry",
))
