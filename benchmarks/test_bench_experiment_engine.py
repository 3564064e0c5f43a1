"""Engine throughput — a multi-cell figure sweep, parallel vs serial.

The unified engine's pitch is that every figure/sweep experiment gets
process-pool fan-out for free.  This bench quantifies it on a
scaled-up confidence/γ sweep (9 cells, each a 120-node 1,200-round
scenario): the engine with ``workers=4`` must beat the same run with
``workers=1`` wall-clock while producing the exact same rows.

Each side is timed three times, serial and parallel alternating, and
compared by its median, so one run slowed by a neighbour does not decide
the verdict.  The cells must cost well above what the 4-worker side loses
to the pool's start-up and, on a shared two-core host, to a second core
that runs at about half speed for a second after it idles (each serial run
leaves it idle): the serial side should take about 2 s.  The round count
follows the cost of a round.  With the one-pass investigation round a
600-round sweep takes about 1 s serially and the parallel side lost 1 in
8 runs; 1,200 rounds take about 2 s serially and about 1 s in parallel,
as 600 rounds did before.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.experiments import format_table, run_experiment

_CONFIDENCE_LEVELS = (0.90, 0.95, 0.99)
_GAMMAS = (0.4, 0.6, 0.8)
_NODES = 120
_ROUNDS = 1200
_REPEATS = 3
_MIN_SPEEDUP = 1.1


def _sweep(workers):
    return run_experiment(
        "confidence_sweep",
        workers=workers,
        axes={"confidence_level": _CONFIDENCE_LEVELS, "gamma": _GAMMAS},
        params={"total_nodes": _NODES, "rounds": _ROUNDS},
    )


def _timed_sweep(workers, seconds):
    start = time.perf_counter()
    result = _sweep(workers)
    seconds.append(time.perf_counter() - start)
    return result


def test_bench_engine_parallel_beats_serial_legacy_loop(benchmark, emit):
    serial_runs, parallel_runs = [], []

    def alternate():
        for _ in range(_REPEATS):
            serial = _timed_sweep(1, serial_runs)
            parallel = _timed_sweep(4, parallel_runs)
            # Same rows, faster wall-clock: the whole point of the fan-out.
            assert parallel.rows() == serial.rows()
        return serial, parallel

    serial, result = benchmark.pedantic(alternate, rounds=1, iterations=1)
    serial_seconds = statistics.median(serial_runs)
    parallel_seconds = statistics.median(parallel_runs)

    if (os.cpu_count() or 1) >= 2:
        # Strictly faster, by more than the host's noise between medians:
        # a pool that runs every cell in one process ties with the serial
        # run to within 5%, while four workers on two cores run 1.5-1.9x
        # faster.
        assert parallel_seconds * _MIN_SPEEDUP < serial_seconds, (
            f"engine with 4 workers (median {parallel_seconds:.2f}s of "
            f"{_REPEATS}) should beat the serial run (median "
            f"{serial_seconds:.2f}s) by {_MIN_SPEEDUP}x on a 9-cell sweep")
    else:
        # A single-core machine cannot speed up CPU-bound cells; the engine
        # must at least keep the fan-out overhead bounded.
        assert parallel_seconds < serial_seconds * 1.6, (
            f"engine fan-out overhead too high on one core: "
            f"{parallel_seconds:.2f}s vs serial {serial_seconds:.2f}s")

    emit(f"ENGINE (Confidence sweep, 9 cells @ {_NODES} nodes x {_ROUNDS} rounds)",
         format_table(result.rows(),
                      title="Scaled confidence sweep via the unified engine")
         + f"\n\nmedian of {_REPEATS} alternating runs: "
           f"serial (--workers 1): {serial_seconds:.2f}s   "
           f"engine --workers 4: {parallel_seconds:.2f}s   "
           f"speed-up: {serial_seconds / parallel_seconds:.2f}x")
    benchmark.extra_info.update({
        "cells": 9,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
    })
