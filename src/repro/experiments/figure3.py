"""Figure 3 — Impact of liars on the detection.

The paper sweeps the proportion of colluding liars among the responders and
plots the investigation result ``Detect^{A,I}`` across rounds.  The expected
shape:

* the more liars, the slower the detection converges toward −1;
* after about 10 rounds the aggregate falls below ≈ −0.4 even with ≈ 43 %
  liars, because the liars' trust — and therefore their weight in Eq. 8 —
  keeps shrinking;
* in the last rounds the aggregate reaches ≈ −0.8 regardless of the liar
  ratio.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.engine import ExperimentDefinition, ExperimentSpec, register
from repro.experiments.rounds import ExperimentResult
from repro.metrics.detection import convergence_round

#: Liar-ratio labels (as quoted by the paper) → liar head-counts.  The paper
#: quotes 26.3 % and 43.2 % liars; the 6.7 % point brackets them with a
#: low-liar reference.
FIGURE3_LIAR_COUNTS = {"6.7%": 1, "26.3%": 4, "43.2%": 6}


def _figure3_row(label: str, result: ExperimentResult) -> Dict[str, object]:
    """One summary row of Figure 3 (computed per liar-ratio cell).

    Values are *raw* — rounding happens only in the report formatter.
    """
    series = result.detect_values()
    return {
        "liar_ratio": label,
        "liar_count": len(result.liars),
        "responders": len(result.responders),
        "round_below_-0.4": convergence_round(series, -0.4, below=True),
        "final_detect": series[-1] if series else 0.0,
    }


def _resolve_figure3_params(params: Dict[str, object]) -> Dict[str, object]:
    """Map the ``liar_ratio`` axis label to a concrete liar sizing.

    Paper labels resolve through :data:`FIGURE3_LIAR_COUNTS`; any other
    ``"X%"`` label becomes a ``liar_fraction`` so the axis accepts arbitrary
    sweep points (e.g. ``--axis "liar_ratio=10%,50%"``).
    """
    label = params.get("liar_ratio")
    if label is not None and "liar_count" not in params:
        if label in FIGURE3_LIAR_COUNTS:
            params["liar_count"] = FIGURE3_LIAR_COUNTS[label]
        else:
            params["liar_fraction"] = float(str(label).rstrip("%")) / 100.0
    params.pop("liar_ratio", None)
    return params


def _figure3_rows(spec: ExperimentSpec,
                  result: ExperimentResult) -> List[Dict[str, object]]:
    return [_figure3_row(str(spec.param("liar_ratio")), result)]


#: Engine registration: one cell per liar-ratio label, all sharing the base
#: scenario seed so the cells differ only by how many responders collude.
FIGURE3_EXPERIMENT = register(ExperimentDefinition(
    name="figure3",
    description="liar-ratio sweep of the detection aggregate (paper Fig. 3)",
    rows_from_result=_figure3_rows,
    axes={"liar_ratio": tuple(FIGURE3_LIAR_COUNTS)},
    resolve_params=_resolve_figure3_params,
    report_title="Figure 3 — impact of liars on the detection",
))
