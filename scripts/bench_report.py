#!/usr/bin/env python
"""Emit a machine-readable engine perf snapshot (``BENCH_engine.json``).

Runs the scheduler-focused benchmarks once and writes one JSON document so
future PRs can diff performance machine-readably instead of eyeballing
pytest-benchmark tables:

* engine events/sec on the 256-node campaign-shaped scheduler workload,
  timer-wheel vs the reference heap engine in ``tests/reference/``;
* wall-clock of one reduced 256-node campaign cell (2 detection cycles),
  with the engine counters of the run;
* mobility tick throughput at 1,024 nodes.

Usage::

    PYTHONPATH=src python scripts/bench_report.py --output BENCH_engine.json
    PYTHONPATH=src python scripts/bench_report.py --skip-cell   # quick mode

The document's ``schema`` field is versioned; add keys freely, never
repurpose existing ones.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.netsim.engine import Simulator  # noqa: E402
from repro.netsim.mobility import RandomWalkMobility  # noqa: E402

from benchmarks.test_bench_olsr_scale import _engine_workload  # noqa: E402
from tests.reference import HeapSimulator  # noqa: E402

SCHEMA = "repro.bench_engine/2"


def bench_engine_throughput(node_count: int = 256, repeats: int = 3) -> dict:
    """Events/sec of both engines on the campaign-shaped workload."""
    results = {}
    events = None
    for name, engine_cls in (("wheel", Simulator), ("heap", HeapSimulator)):
        best = float("inf")
        for _ in range(repeats):
            simulator = engine_cls()
            started = time.perf_counter()
            processed = _engine_workload(simulator, node_count)
            best = min(best, time.perf_counter() - started)
            if events is None:
                events = processed
            assert processed == events, "engines must process identical work"
        results[name] = {"seconds": round(best, 4),
                         "events_per_s": round(events / best)}
    return {
        "nodes": node_count,
        "workload_events": events,
        "wheel": results["wheel"],
        "heap": results["heap"],
        "speedup": round(results["wheel"]["events_per_s"]
                         / results["heap"]["events_per_s"], 3),
    }


def bench_campaign_cell(node_count: int = 256, area_size: float = 2800.0) -> dict:
    """Wall-clock of one reduced ``campaign`` cell on the current engine."""
    from repro.experiments.backends import run_netsim_cell, scenario_config_from_params
    from repro.experiments.engine import get_experiment

    (spec,) = get_experiment("campaign").expand(
        axes={"total_nodes": (node_count,), "liar_fraction": (0.1,),
              "loss_probability": (0.1,), "max_speed": (2.0,)},
        params={"area_size": area_size, "warmup": 12.0, "cycles": 2})
    params = spec.params_dict()
    started = time.perf_counter()
    result = run_netsim_cell(scenario_config_from_params(params, spec.seed), params)
    elapsed = time.perf_counter() - started
    events = result.stats["events_processed"]
    return {
        "nodes": node_count,
        "area_m": area_size,
        "wall_clock_s": round(elapsed, 2),
        "events": events,
        "events_per_s": round(events / elapsed),
        "engine_counters": result.stats.get("engine", {}),
    }


def bench_mobility_ticks(node_count: int = 1024, ticks: int = 300) -> dict:
    """Mobility tick throughput of the random-walk model (a draw-bound tick)."""

    class _Clock:
        now = 0.0

    class _Net:
        def __init__(self, positions):
            self.positions = dict(positions)
            self.simulator = _Clock()

    model = RandomWalkMobility(width=5600.0, height=5600.0, rng=random.Random(7))
    net = _Net(model.place([f"n{i:04d}" for i in range(node_count)]))
    started = time.perf_counter()
    for tick in range(ticks):
        net.simulator.now = (tick + 1) * model.update_interval
        model._advance(net)
    elapsed = time.perf_counter() - started
    return {
        "nodes": node_count,
        "ticks": ticks,
        "model": "random_walk",
        "ticks_per_s": round(ticks / elapsed, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_engine.json",
                        help="path of the JSON report (default: %(default)s)")
    parser.add_argument("--cell-nodes", type=int, default=256,
                        help="campaign-cell size (default: %(default)s)")
    parser.add_argument("--skip-cell", action="store_true",
                        help="skip the campaign-cell run (quick mode)")
    args = parser.parse_args(argv)

    report = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "engine_throughput": bench_engine_throughput(),
        "mobility_ticks": bench_mobility_ticks(),
    }
    print(f"engine throughput: {report['engine_throughput']['speedup']}x "
          "wheel over heap", flush=True)
    print(f"mobility ticks: {report['mobility_ticks']['ticks_per_s']}/s "
          f"at {report['mobility_ticks']['nodes']} nodes", flush=True)
    if not args.skip_cell:
        report["campaign_cell"] = bench_campaign_cell(args.cell_nodes)
        print(f"campaign cell ({args.cell_nodes} nodes): "
              f"{report['campaign_cell']['wall_clock_s']}s", flush=True)

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
