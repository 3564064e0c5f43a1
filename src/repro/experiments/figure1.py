"""Figure 1 — Trustworthiness.

The paper's Figure 1 plots, for the node under attack, the trust value it
assigns to every other node across 25 investigation rounds while the link
spoofing attack (and the lying) persists.  The expected shape:

* the trust of liars decreases, largely and monotonically, regardless of
  their initial trust value (the "defensive" behaviour);
* well-behaving nodes gain trust, but only a little over 25 rounds when they
  start from a low initial value;
* the attacker's trust collapses as the investigation keeps concluding that
  the advertised link is wrong.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult
from repro.metrics.trust_metrics import total_change


def _figure1_rows(spec: ExperimentSpec,
                  result: ExperimentResult) -> List[Dict[str, object]]:
    """One row per node with initial/final trust and change.

    Values are *raw* — rounding happens only in the report formatter, so
    aggregations over these rows average unbiased per-node metrics.
    """
    rows = []
    for node, trajectory in result.trust_trajectories().items():
        rows.append(
            {
                "node": node,
                "role": result.role_of(node),
                "initial_trust": result.initial_trust.get(node, 0.0),
                "final_trust": trajectory[-1] if trajectory else None,
                "change": total_change(trajectory),
            }
        )
    return rows


#: Engine registration: the paper's default scenario with the attack
#: persisting for the whole run (single cell; promote any fixed parameter —
#: e.g. ``liar_count`` — to an axis at run time to sweep it).
FIGURE1_EXPERIMENT = register(ExperimentDefinition(
    name="figure1",
    description="trust trajectories under a persistent attack (paper Fig. 1)",
    rows_from_result=_figure1_rows,
    fixed={"attack_stop_round": None},
    report_title="Figure 1 — trustworthiness per node",
))
