"""Figure 2 — Impact of the forgetting factor on the trustworthiness.

Paper shape: after the attack ceases, nodes with a high or medium trust value
return to the default (0.4) in the last rounds, while former liars recover
slowly and may not reach it.
"""

from __future__ import annotations

from repro.experiments import (
    RoundBasedExperiment,
    ScenarioConfig,
    format_table,
    format_trajectories,
    run_experiment,
)


def test_bench_figure2_forgetting_factor(benchmark, emit):
    result = benchmark(run_experiment, "figure2")
    rows = result.rows()

    # The rows carry no per-round trust; replay the same scenario for it.
    run = RoundBasedExperiment(ScenarioConfig(rounds=75, attack_stop_round=25)).run()
    trajectories = run.trust_trajectories()
    roles = {node: run.role_of(node) for node in trajectories}
    attack_stop_round = run.config.attack_stop_round
    series = format_trajectories(
        trajectories, roles=roles,
        title=f"Figure 2 — trust with attack stopping at round {attack_stop_round}")
    table = format_table(rows, title="Figure 2 — recovery toward the default trust")
    emit("FIGURE 2 (Forgetting factor)", series + "\n\n" + table)

    honest_gaps = [abs(row["gap_to_default"]) for row in rows if row["role"] == "honest"]
    liar_gaps = [row["gap_to_default"] for row in rows if row["role"] == "liar"]
    assert max(honest_gaps) < 0.1
    assert min(liar_gaps) > 0.05

    benchmark.extra_info["attack_stop_round"] = attack_stop_round
    benchmark.extra_info["max_honest_gap"] = round(max(honest_gaps), 4)
    benchmark.extra_info["min_liar_gap"] = round(min(liar_gaps), 4)
