"""Table A (extension) — confidence level / γ sweep of the decision rule.

Section IV-C of the paper introduces the confidence interval and the γ
threshold but shows no figure; this bench quantifies the mechanism: rounds
until a conclusive verdict and final correctness for each configuration.
"""

from __future__ import annotations

from repro.experiments import format_table, run_experiment


def test_bench_confidence_gamma_sweep(benchmark, emit):
    result = benchmark(run_experiment, "confidence_sweep")
    rows = result.rows()

    table = format_table(rows, title="Table A — decision rule vs confidence level and γ")
    emit("TABLE A (Confidence interval sweep)", table)

    # Every configuration with γ ≤ 0.6 must identify the intruder.
    for row in rows:
        if row["gamma"] <= 0.6:
            assert row["verdict_correct"]
    correct_fraction = sum(1 for row in rows if row["verdict_correct"]) / len(rows)
    assert correct_fraction >= 0.5

    benchmark.extra_info["correct_fraction"] = round(correct_fraction, 3)
    benchmark.extra_info["configurations"] = len(rows)
