"""Figure 2 — Impact of the forgetting factor on the trustworthiness.

After the attack (and the lying) ceases, no investigation runs any more and
the forgetting factor β of Eq. 5 drives every trust value back toward the
default (initial) trust, 0.4 in the paper:

* nodes with a high or medium trust decay down to the default within the
  remaining rounds;
* former liars, whose trust collapsed while they lied, recover toward the
  default only slowly and may not reach it — the system "demands a long
  misconduct-less duration before trusting a former liar".
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult
from repro.metrics.trust_metrics import recovery_gap


def _figure2_rows(spec: ExperimentSpec,
                  result: ExperimentResult) -> List[Dict[str, object]]:
    """Per node, trust at the cut-over and at the end, and the final gap to
    the default trust.

    Values are *raw* — rounding happens only in the report formatter.
    """
    config = result.config
    attack_stop = config.attack_stop_round
    if attack_stop is None:
        attack_stop = max(2, config.rounds // 4)
    rows = []
    for node, trajectory in result.trust_trajectories().items():
        at_stop = (
            trajectory[attack_stop - 1]
            if len(trajectory) >= attack_stop and attack_stop > 0
            else (trajectory[0] if trajectory else None)
        )
        rows.append(
            {
                "node": node,
                "role": result.role_of(node),
                "trust_at_attack_stop": at_stop,
                "final_trust": trajectory[-1] if trajectory else None,
                "gap_to_default": recovery_gap(trajectory, config.trust.default_trust),
            }
        )
    return rows


#: Engine registration: the Figure 1 attack phase (25 rounds) followed by 50
#: misconduct-free rounds (single cell; the stop round and horizon are
#: overridable params).
FIGURE2_EXPERIMENT = register(ExperimentDefinition(
    name="figure2",
    description="forgetting-factor recovery after the attack stops (paper Fig. 2)",
    rows_from_result=_figure2_rows,
    fixed={"rounds": 75, "attack_stop_round": 25},
    report_title="Figure 2 — trust recovery under the forgetting factor",
))
