"""Fabric throughput — the same campaign dispatched to 1, 2 and 4 worker groups.

Each worker group is a real ``python -m repro.experiments fabric work``
subprocess draining the shared work-stealing queue into its own shard store,
exactly as on a multi-host deployment.  The bench records the wall-clock for
each group count and checks the merged 4-group report stays byte-identical
to the single-process run — distribution must never change the science.

Scaling assertions are gated on the machine's core count: subprocess workers
only beat one worker when there are cores to run them on, so a single-core
runner merely has to keep the fan-out overhead bounded.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

from repro.experiments.engine import run_experiment
from repro.experiments.results import ResultsStore
from repro.fabric import FabricQueue, dispatch_experiment, merge_shards

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
_EXPERIMENT = "confidence_sweep"
_AXES = {"gamma": (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)}  # 6 gammas x 3 levels = 18
_PARAMS = {"total_nodes": 120, "rounds": 120}
_CELLS = 18


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _run_groups(tmp: pathlib.Path, groups: int):
    """Dispatch a fresh queue and drain it with ``groups`` worker processes."""
    run_dir = tmp / f"groups-{groups}"
    run_dir.mkdir(parents=True, exist_ok=True)
    queue = str(run_dir / "queue.sqlite")
    shard_dir = str(run_dir / "shards")
    dispatch_experiment(queue, _EXPERIMENT, axes=_AXES, params=_PARAMS)
    env = _worker_env()
    start = time.perf_counter()
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "fabric", "work",
             "--queue", queue, "--group", f"g{i}", "--shard-dir", shard_dir,
             "--batch", "2", "--lease-ttl", "60", "--poll", "0.05"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for i in range(groups)
    ]
    for proc in procs:
        assert proc.wait(timeout=300) == 0
    elapsed = time.perf_counter() - start
    with FabricQueue(queue) as fabric:
        assert fabric.counts()["done"] == _CELLS
    shards = [str(run_dir / "shards" / f"shard-g{i}.sqlite")
              for i in range(groups)]
    return elapsed, [s for s in shards if os.path.exists(s)]


def test_bench_fabric_worker_group_scaling(benchmark, emit, tmp_path):
    golden = run_experiment(_EXPERIMENT, axes=_AXES,
                            params=_PARAMS).format_report()

    one_second, _ = _run_groups(tmp_path, 1)
    two_seconds, _ = _run_groups(tmp_path, 2)

    state = {}

    def _four_groups():
        state["result"] = _run_groups(tmp_path / "bench", 4)

    benchmark.pedantic(_four_groups, rounds=1, iterations=1)
    four_seconds, shards = state["result"]

    # Distribution must not change the science: merge the 4-group shards and
    # re-render — byte-identical to the single-process report.
    merged = str(tmp_path / "merged.sqlite")
    merge_shards(shards, merged)
    with ResultsStore(merged) as store:
        result = run_experiment(_EXPERIMENT, axes=_AXES, params=_PARAMS,
                                store=store, resume=True, max_new_runs=0)
        assert result.executed_run_ids == []
        assert result.format_report() == golden

    cores = os.cpu_count() or 1
    if cores >= 4:
        assert four_seconds < one_second, (
            f"4 worker groups ({four_seconds:.2f}s) should beat one "
            f"({one_second:.2f}s) on {cores} cores")
    elif cores >= 2:
        assert two_seconds < one_second * 1.2, (
            f"2 worker groups ({two_seconds:.2f}s) should roughly match or "
            f"beat one ({one_second:.2f}s) on {cores} cores")
    else:
        # One core cannot run workers concurrently; the queue/lease machinery
        # must still keep the total overhead bounded.
        assert four_seconds < one_second * 3.0, (
            f"fabric fan-out overhead too high on one core: 4 groups "
            f"{four_seconds:.2f}s vs 1 group {one_second:.2f}s")

    emit(f"FABRIC ({_CELLS}-cell confidence sweep, worker-group scaling)",
         f"1 group: {one_second:.2f}s   2 groups: {two_seconds:.2f}s   "
         f"4 groups: {four_seconds:.2f}s   cores: {cores}\n"
         f"merged 4-group report byte-identical to single-process run")
    benchmark.extra_info.update({
        "cells": _CELLS,
        "cores": cores,
        "one_group_seconds": round(one_second, 3),
        "two_group_seconds": round(two_seconds, 3),
        "four_group_seconds": round(four_seconds, 3),
    })
