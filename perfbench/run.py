"""Benchmark of the MANET link-spoofing detector: four closed-loop workloads.

Run one workload, or all of them, from the root of a checkout::

    python3 perfbench/run.py --workload dense-static --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh process (so its peak RSS is its own) after a
few set-up probes, each another fresh process timed from its start to the
first simulated event or first cell.  ``throughput`` is the work of the
timed operations per busy second over the host speed sampled while they
ran (``worker.HostSpeed``).  ``--trace 1`` replays the timed operations
under the span tracer and reports per-layer metrics instead.
The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: In priority order: the first is the one a perf claim most needs.
WORKLOADS = ("dense-static", "oracle-sweep", "mobile-churn", "validate-fuzz")
#: Set-up probes per untraced run; with the workload's own process they
#: give five set-up samples, whose median is ``setup_s``.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A worker process failed; no result can be reported."""


def _spawn(workload: str, seed: int, seconds: float, trace: int, toy: bool,
           probe: bool = False) -> dict:
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    if probe:
        command.append("--probe")
    if toy:
        command.append("--toy")
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S if probe else WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload}: worker timed out after {error.timeout} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{workload}: worker exited with {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def throughput(measured: dict) -> float:
    """Work per busy second at the reference host speed (``worker.HostSpeed``)."""
    return measured["work"] / measured["busy_s"] / measured["host_speed"]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 toy: bool = False) -> dict:
    """One workload's final result object (see the module docstring)."""
    probes = [] if trace else [
        _spawn(workload, seed, seconds, trace, toy, probe=True)["setup_s"]
        for _ in range(SETUP_PROBES)]
    measured = _spawn(workload, seed, seconds, trace, toy)
    _print_summary(workload, seed, measured, probes)
    correct = measured["failed"] == 0
    if trace:
        traced = measured["trace"]
        correct = correct and traced["accounting_ok"] and traced["digests_match"]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["metrics"].items()}
    else:
        metrics = {
            "throughput": {"value": throughput(measured), "unit": "1/s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(probes + [measured["setup_s"]]),
                        "unit": "s"},
        }
    return {"correct": correct, "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def _print_summary(workload: str, seed: int, measured: dict, probes: List[float]) -> None:
    rate = measured["work"] / measured["busy_s"]
    rate_name = "events_per_s" if measured["work_unit"] == "events" else "cells_per_s"
    print(f"== {workload}  seed={seed}  digests pinned: "
          f"{'yes' if measured['pinned'] else 'no (determinism checks only)'}")
    rows = [("wall_s", f"{measured['wall_s']:.3f}", "s"),
            (rate_name, f"{rate:.2f}", f"1/s ({measured['work_unit']} per host second)"),
            ("host_speed", f"{measured['host_speed']:.4f}",
             f"x reference ({measured['host_samples']} samples)"),
            ("throughput", f"{throughput(measured):.2f}", "1/s (at reference host speed)"),
            ("peak_rss_mb", f"{measured['peak_rss_mb']:.1f}", "MB"),
            ("ops", str(measured["attempted"]), "count"),
            ("ops_failed", str(measured["failed"]), "count")]
    if probes:
        samples = probes + [measured["setup_s"]]
        rows.insert(1, ("setup_s", f"{statistics.median(samples):.4f}",
                        f"s (median of {len(samples)})"))
    for name, value, unit in rows:
        print(f"  {name:<14}{value:>14}  {unit}")
    for error in measured["errors"]:
        print(f"  FAILED {error}")
    traced = measured.get("trace")
    if traced:
        metrics = traced["metrics"]
        print(f"  traced: accounting {'ok' if traced['accounting_ok'] else 'BROKEN'}, "
              f"digests {'match' if traced['digests_match'] else 'DIFFER'}, "
              f"unmeasured: {', '.join(traced['unmeasured']) or 'none'}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34}{value:>16.6g}  {unit}")
        for error in traced["errors"]:
            print(f"  TRACE FAILED {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed; digests are pinned for the default (1)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed phase (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: replay the timed phase traced, report per layer")
    parser.add_argument("--toy", action="store_true",
                        help="shrink every workload to a few seconds (tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results: Dict[str, dict] = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.toy)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
