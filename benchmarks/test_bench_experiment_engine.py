"""Engine throughput — a multi-cell figure sweep, parallel vs the legacy loop.

The unified engine's pitch is that every figure/sweep experiment gets
process-pool fan-out for free.  This bench quantifies it on a
scaled-up confidence/γ sweep (9 cells, each a 120-node 150-round scenario):
the engine with ``workers=4`` must beat the serial legacy driver wall-clock
while producing the exact same rows.
"""

from __future__ import annotations

import os
import time

from repro.experiments import format_table, run_experiment
from repro.experiments.config import ScenarioConfig
from repro.experiments.confidence_sweep import run_confidence_sweep

_CONFIDENCE_LEVELS = (0.90, 0.95, 0.99)
_GAMMAS = (0.4, 0.6, 0.8)
_NODES = 120
_ROUNDS = 150


def test_bench_engine_parallel_beats_serial_legacy_loop(benchmark, emit):
    def _parallel():
        return run_experiment(
            "confidence_sweep",
            workers=4,
            axes={"confidence_level": _CONFIDENCE_LEVELS, "gamma": _GAMMAS},
            params={"total_nodes": _NODES, "rounds": _ROUNDS},
        )

    start = time.perf_counter()
    legacy = run_confidence_sweep(
        confidence_levels=_CONFIDENCE_LEVELS,
        gammas=_GAMMAS,
        base_config=ScenarioConfig(total_nodes=_NODES, rounds=_ROUNDS),
    )
    serial_seconds = time.perf_counter() - start

    result = benchmark.pedantic(_parallel, rounds=1, iterations=1)
    parallel_seconds = benchmark.stats.stats.mean

    # Same rows, faster wall-clock: the whole point of the migration.
    assert result.rows() == legacy.as_rows()
    if (os.cpu_count() or 1) >= 2:
        assert parallel_seconds < serial_seconds, (
            f"engine with 4 workers ({parallel_seconds:.2f}s) should beat the "
            f"serial legacy loop ({serial_seconds:.2f}s) on a 9-cell sweep")
    else:
        # A single-core machine cannot speed up CPU-bound cells; the engine
        # must at least keep the fan-out overhead bounded.
        assert parallel_seconds < serial_seconds * 1.6, (
            f"engine fan-out overhead too high on one core: "
            f"{parallel_seconds:.2f}s vs serial {serial_seconds:.2f}s")

    emit("ENGINE (Confidence sweep, 9 cells @ 120 nodes x 150 rounds)",
         format_table(result.rows(),
                      title="Scaled confidence sweep via the unified engine")
         + f"\n\nserial legacy: {serial_seconds:.2f}s   "
           f"engine --workers 4: {parallel_seconds:.2f}s   "
           f"speed-up: {serial_seconds / parallel_seconds:.2f}x")
    benchmark.extra_info.update({
        "cells": 9,
        "serial_seconds": round(serial_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
    })
