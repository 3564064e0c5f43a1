"""Figure 1 — Trustworthiness (trust of every node as seen by the attacked node).

Paper shape: the trust assigned to liars decreases, largely and monotonically,
regardless of the initial value; well-behaving nodes gain a little; the groups
separate clearly after 25 rounds.
"""

from __future__ import annotations

from repro.experiments import (
    RoundBasedExperiment,
    ScenarioConfig,
    format_table,
    format_trajectories,
    run_experiment,
)
from repro.metrics.trust_metrics import TrustTrajectoryReport


def test_bench_figure1_trust_trajectories(benchmark, emit):
    result = benchmark(run_experiment, "figure1")

    # The rows carry no per-round trust; replay the same scenario for it.
    run = RoundBasedExperiment(ScenarioConfig()).run()
    trajectories = run.trust_trajectories()
    roles = {node: run.role_of(node) for node in trajectories}
    series = format_trajectories(trajectories, roles=roles,
                                 title="Figure 1 — trust per node across 25 rounds")
    table = format_table(result.rows(), title="Figure 1 — initial vs final trust")
    emit("FIGURE 1 (Trustworthiness)", series + "\n\n" + table)

    report = TrustTrajectoryReport(observer=run.investigator, trajectories=trajectories,
                                   liars=run.liars, honest=run.honest_responders,
                                   attacker=run.attacker)
    assert report.liars_all_decreasing()
    assert report.honest_all_non_decreasing()
    assert report.final_separation() > 0.3

    benchmark.extra_info["separation"] = round(report.final_separation(), 4)
    benchmark.extra_info["attacker_final_trust"] = round(
        trajectories[run.attacker][-1], 4)
    benchmark.extra_info["liar_count"] = len(run.liars)
