"""Figure 3 — Impact of liars on the detection.

Paper shape: the more liars, the slower Detect^{A,I} converges, but it falls
below −0.4 by round 10 even with ≈ 43 % liars and reaches ≈ −0.8 for every
liar ratio in the last rounds.
"""

from __future__ import annotations

from repro.experiments import (
    RoundBasedExperiment,
    ScenarioConfig,
    format_series,
    format_table,
    run_experiment,
)
from repro.experiments.figure3 import FIGURE3_LIAR_COUNTS


def test_bench_figure3_liar_impact(benchmark, emit):
    result = benchmark(run_experiment, "figure3")

    # The rows carry no per-round aggregate; replay the same cells for it.
    detect = {
        label: RoundBasedExperiment(ScenarioConfig(liar_count=count)).run().detect_values()
        for label, count in FIGURE3_LIAR_COUNTS.items()
    }
    series = format_series(detect,
                           title="Figure 3 — Detect^{A,I} per round, by liar ratio")
    table = format_table(result.rows(), title="Figure 3 — convergence summary")
    emit("FIGURE 3 (Impact of liars)", series + "\n\n" + table)

    for label, values in detect.items():
        assert values[10] <= -0.4, f"{label} not below -0.4 by round 10"
        assert values[-1] <= -0.75, f"{label} did not converge"
    convergence = {row["liar_ratio"]: row["round_below_-0.4"] for row in result.rows()}
    assert convergence["6.7%"] <= convergence["26.3%"] <= convergence["43.2%"]

    benchmark.extra_info["final_detect"] = {
        label: round(values[-1], 3) for label, values in detect.items()
    }
    benchmark.extra_info["rounds_to_minus_0.4"] = convergence
