"""Table D (extension) — campaign throughput and determinism.

Times a 16-cell ``campaign`` (node count × liar fraction × loss model ×
loss probability) running end to end through the experiment engine and
checks the two properties the experiment promises: every cell completes
with a usable detection row per system, and re-running the same grid
reproduces the formatted report byte for byte (stable per-cell seeds, no
wall-clock in the output).
"""

from __future__ import annotations

from repro.experiments import aggregate_rows, format_table, run_experiment
from repro.experiments.campaign import SYSTEMS

_AXES = {
    "total_nodes": (8, 12),
    "liar_fraction": (0.0, 0.25),
    "loss_model": ("bernoulli", "distance"),
    "loss_probability": (0.2, 0.8),
}
_PARAMS = {"warmup": 25.0, "cycles": 2}
_VALUES = ("final_detect", "attacker_trust", "cycles", "flagged")


def _run():
    return run_experiment("campaign", axes=_AXES, params=_PARAMS)


def test_bench_campaign_runs_grid(benchmark, emit):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert result.cells() == 16

    rows = result.rows()
    assert len(rows) == 16 * len(SYSTEMS)
    assert all(row["frames_sent"] > 0 for row in rows)
    emit("TABLE D (Campaign, 16 cells)",
         format_table(aggregate_rows(rows, ("system", "nodes", "loss"), _VALUES),
                      title="Table D — campaign aggregate by system × node count × loss"))

    # Determinism: a second pass over the same grid is byte-identical.
    assert _run().format_report() == result.format_report()

    detector_rows = [row for row in rows if row["system"] == "detector"]
    benchmark.extra_info.update({
        "cells": len(detector_rows),
        "events_total": sum(row["events"] for row in detector_rows),
    })
