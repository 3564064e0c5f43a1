"""Extension bench — evidence-gravity weighting ablation.

The paper's future work proposes "different weighting of the evidences
according to their gravity/reputability"; this bench sweeps the harmful
evidence weight α and reports detection speed, liar punishment and honest
collateral for each asymmetry level.
"""

from __future__ import annotations

from repro.experiments import format_table, run_experiment


def test_bench_gravity_weighting_ablation(benchmark, emit):
    result = benchmark(run_experiment, "gravity_ablation")
    rows = result.rows()

    emit("EXTENSION (Evidence gravity ablation)",
         format_table(rows,
                      title="Harmful-evidence weight α vs detection speed and punishment"))

    # More asymmetric weighting must never *raise* the liars' final trust.
    ordered = sorted(rows, key=lambda row: row["asymmetry"])
    trusts = [row["mean_liar_trust"] for row in ordered]
    assert all(b <= a + 1e-6 for a, b in zip(trusts, trusts[1:]))
    for row in rows:
        assert row["final_detect"] < -0.5
    benchmark.extra_info["rows"] = rows
