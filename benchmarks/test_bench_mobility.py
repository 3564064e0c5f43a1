"""Extension bench — impact of mobility on the trust-enabled detection.

The paper lists "the impact of mobility on trustworthiness evaluation" as
future work; this bench runs the full-stack scenario under random-waypoint
mobility at increasing speeds and reports how the investigation degrades
(missing answers / unreachable responders) and whether detection still
converges.
"""

from __future__ import annotations

from repro.experiments import format_table, run_experiment


def test_bench_mobility_impact(benchmark, emit):
    result = benchmark.pedantic(run_experiment, args=("mobility",),
                                kwargs={"params": {"cycles": 6}},
                                rounds=1, iterations=1)
    rows = result.rows()

    emit("EXTENSION (Mobility impact)",
         format_table(rows,
                      title="Detection quality vs maximum node speed (random waypoint)"))

    static = rows[0]
    assert static["attacker_investigated"]
    assert static["final_detect"] is not None and static["final_detect"] < 0.0
    benchmark.extra_info["rows"] = rows
