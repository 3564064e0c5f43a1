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

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.decision import DecisionOutcome
from repro.experiments.config import ScenarioConfig, paper_default_config
from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult, RoundBasedExperiment


@dataclass
class GravityRow:
    """Outcome of one (alpha_harmful, alpha_beneficial) configuration."""

    alpha_harmful: float
    alpha_beneficial: float
    asymmetry: float
    detection_round: Optional[int]
    final_detect: float
    mean_final_liar_trust: float
    mean_final_honest_trust: float
    honest_collateral: float

    def as_dict(self) -> Dict[str, object]:
        """Flat row for tabular output (raw values; the report formatter
        owns rounding)."""
        return {
            "alpha_harmful": self.alpha_harmful,
            "alpha_beneficial": self.alpha_beneficial,
            "asymmetry": self.asymmetry,
            "detection_round": self.detection_round,
            "final_detect": self.final_detect,
            "mean_liar_trust": self.mean_final_liar_trust,
            "mean_honest_trust": self.mean_final_honest_trust,
            "honest_collateral": self.honest_collateral,
        }


@dataclass
class GravityAblationResult:
    """All rows of the gravity sweep."""

    rows: List[GravityRow] = field(default_factory=list)

    def as_rows(self) -> List[Dict[str, object]]:
        """Flat rows for the report generator."""
        return [row.as_dict() for row in self.rows]

    def liar_punishment_increases_with_asymmetry(self) -> bool:
        """More asymmetric weighting must never *raise* the liars' final trust."""
        ordered = sorted(self.rows, key=lambda r: r.asymmetry)
        trusts = [r.mean_final_liar_trust for r in ordered]
        return all(b <= a + 1e-6 for a, b in zip(trusts, trusts[1:]))


def run_gravity_ablation(
    harmful_alphas: Sequence[float] = (0.02, 0.04, 0.08, 0.16),
    beneficial_alpha: float = 0.04,
    base_config: Optional[ScenarioConfig] = None,
) -> GravityAblationResult:
    """Sweep the harmful-evidence weight while keeping the beneficial one fixed."""
    base = base_config or paper_default_config()
    result = GravityAblationResult()
    for alpha_harmful in harmful_alphas:
        trust_params = replace(base.trust, alpha_harmful=alpha_harmful,
                               alpha_beneficial=beneficial_alpha)
        config = base.with_overrides(trust=trust_params)
        run = RoundBasedExperiment(config).run()
        result.rows.append(gravity_row(run, alpha_harmful, beneficial_alpha))
    return result


def gravity_row(run: ExperimentResult, alpha_harmful: float,
                alpha_beneficial: float) -> GravityRow:
    """Summarise one gravity-weighting run into its sweep row."""
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
    return GravityRow(
        alpha_harmful=alpha_harmful,
        alpha_beneficial=alpha_beneficial,
        asymmetry=alpha_harmful / alpha_beneficial,
        detection_round=detection_round,
        final_detect=detect_values[-1] if detect_values else 0.0,
        mean_final_liar_trust=sum(liar_finals) / len(liar_finals),
        mean_final_honest_trust=sum(honest_finals) / len(honest_finals),
        honest_collateral=collateral,
    )


def _gravity_rows(spec: ExperimentSpec,
                  result: ExperimentResult) -> List[Dict[str, object]]:
    row = gravity_row(result,
                      float(spec.param("trust_alpha_harmful")),
                      float(spec.param("trust_alpha_beneficial")))
    return [row.as_dict()]


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
