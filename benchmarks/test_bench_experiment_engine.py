"""Engine throughput — a multi-cell figure sweep, parallel vs serial.

The unified engine's pitch is that every figure/sweep experiment gets
process-pool fan-out for free.  This bench quantifies it on a
scaled-up confidence/γ sweep (9 cells, each a 120-node 150-round scenario):
the engine with ``workers=4`` must beat the same run with ``workers=1``
wall-clock while producing the exact same rows.
"""

from __future__ import annotations

import os
import time

from repro.experiments import format_table, run_experiment

_CONFIDENCE_LEVELS = (0.90, 0.95, 0.99)
_GAMMAS = (0.4, 0.6, 0.8)
_NODES = 120
_ROUNDS = 150


def _sweep(workers):
    return run_experiment(
        "confidence_sweep",
        workers=workers,
        axes={"confidence_level": _CONFIDENCE_LEVELS, "gamma": _GAMMAS},
        params={"total_nodes": _NODES, "rounds": _ROUNDS},
    )


def test_bench_engine_parallel_beats_serial_legacy_loop(benchmark, emit):
    start = time.perf_counter()
    serial = _sweep(workers=1)
    serial_seconds = time.perf_counter() - start

    result = benchmark.pedantic(_sweep, args=(4,), rounds=1, iterations=1)
    parallel_seconds = benchmark.stats.stats.mean

    # Same rows, faster wall-clock: the whole point of the fan-out.
    assert result.rows() == serial.rows()
    if (os.cpu_count() or 1) >= 2:
        assert parallel_seconds < serial_seconds, (
            f"engine with 4 workers ({parallel_seconds:.2f}s) should beat the "
            f"serial run ({serial_seconds:.2f}s) on a 9-cell sweep")
    else:
        # A single-core machine cannot speed up CPU-bound cells; the engine
        # must at least keep the fan-out overhead bounded.
        assert parallel_seconds < serial_seconds * 1.6, (
            f"engine fan-out overhead too high on one core: "
            f"{parallel_seconds:.2f}s vs serial {serial_seconds:.2f}s")

    emit("ENGINE (Confidence sweep, 9 cells @ 120 nodes x 150 rounds)",
         format_table(result.rows(),
                      title="Scaled confidence sweep via the unified engine")
         + f"\n\nserial (--workers 1): {serial_seconds:.2f}s   "
           f"engine --workers 4: {parallel_seconds:.2f}s   "
           f"speed-up: {serial_seconds / parallel_seconds:.2f}x")
    benchmark.extra_info.update({
        "cells": 9,
        "serial_seconds": round(serial_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
    })
