"""Table B (ablation) — trust-weighted detection (Eq. 8) vs baselines.

Every method is fed the exact same investigation answers produced by the
paper's 16-node / 4-liar scenario; the comparison reports the first round at
which each method classifies the attacker as an intruder and its final score.
"""

from __future__ import annotations

from repro.experiments import (
    RoundBasedExperiment,
    ScenarioConfig,
    format_series,
    format_table,
    run_experiment,
)
from repro.experiments.ablation import replay_methods


def test_bench_ablation_trust_weighting_vs_baselines(benchmark, emit):
    result = benchmark(run_experiment, "ablation")
    rows = {row["method"]: row for row in result.rows()}

    # The rows carry no per-round scores; replay the same scenario for them.
    methods = replay_methods(RoundBasedExperiment(ScenarioConfig()).run())
    table = format_table(result.rows(),
                         title="Table B — detection round and final score per method")
    series = format_series(
        {name: t.scores for name, t in methods.items()},
        title="Score trajectory per method (same answer stream)",
    )
    emit("TABLE B (Ablation / baseline comparison)", table + "\n\n" + series)

    ours = rows["trust-weighted"]
    vote = rows["unweighted-vote"]
    assert ours["final_score"] < vote["final_score"]
    assert ours["final_score"] < -0.8
    assert ours["detection_round"] is not None

    benchmark.extra_info["final_scores"] = {
        name: round(row["final_score"], 3) for name, row in rows.items()
    }
    benchmark.extra_info["detection_rounds"] = {
        name: row["detection_round"] for name, row in rows.items()
    }
