"""Alternating parent/change pairs of one perfbench workload.

Run from anywhere inside a checkout::

    python3 scripts/perf_pairs.py --workload dense-static --pairs 10
    python3 scripts/perf_pairs.py --workload mobile-churn --pairs 4 --seed 3 --parent HEAD~1

The parent ref is exported with ``git archive`` and the working tree's
tracked files are copied, each into its own temporary directory.  Then
``perfbench/run.py --workload W --seed S --seconds T`` runs once per side
per pair, with ``PYTHONDONTWRITEBYTECODE=1`` so neither side reuses a
bytecode cache, and the side that runs first alternates from pair to pair.

For each end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles (``statistics.quantiles(n=4)``), the pairs the change
wins (judged by the metric's ``better``; ties count for neither side) and
the parent's IQR, then every run's ``failed`` count, then one JSON record
per metric in the shape of ``BENCH_perfbench.json``'s records.  Only runs
of one session compare: the shared host drifts between sessions.  It
writes nothing outside its temporary directories.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: Sequence[float]) -> Dict[str, Optional[float]]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": None, "q3": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _rounded(value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    for limit, digits in ((10.0, 3), (1000.0, 2)):
        if abs(value) < limit:
            return round(value, digits)
    return round(value, 1)


def summarize(parent_runs: List[dict], change_runs: List[dict], metrics: List[dict],
              workload: str, seed: int, seconds: float,
              pr: Optional[int] = None) -> List[dict]:
    """One record per metric over pairs ``(parent_runs[i], change_runs[i])``.

    Each run is the final JSON object of ``perfbench/run.py``; ``metrics``
    are ``BENCHMARK.json``'s ``end_to_end`` entries.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same positive number of runs on each side")
    records = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        parent_side, change_side = _quartiles(parent), _quartiles(change)
        iqr = (None if parent_side["q1"] is None
               else parent_side["q3"] - parent_side["q1"])
        records.append({
            "pr": pr, "workload": workload, "metric": name, "unit": metric["unit"],
            "better": better, "seed": seed, "run_seconds": seconds,
            "pairs": len(parent), "wins": wins,
            "parent": {key: _rounded(value) for key, value in parent_side.items()},
            "change": {key: _rounded(value) for key, value in change_side.items()},
            "parent_iqr": _rounded(iqr),
        })
    return records


def format_summary(records: List[dict], parent_runs: List[dict],
                   change_runs: List[dict]) -> str:
    """The human-readable table printed above the JSON records."""
    lines = [f"{'metric':<14}{'side':<8}{'median':>12}{'q1':>12}{'q3':>12}"]
    for record in records:
        for side in ("parent", "change"):
            values = record[side]
            cells = "".join(f"{'-' if values[key] is None else values[key]:>12}"
                            for key in ("median", "q1", "q3"))
            lines.append(f"{record['metric']:<14}{side:<8}{cells}")
        lines.append(f"{'':<14}wins {record['wins']}/{record['pairs']} "
                     f"({record['better']} is better), parent IQR {record['parent_iqr']}")
    lines.append(f"failed: parent {[run['failed'] for run in parent_runs]}, "
                 f"change {[run['failed'] for run in change_runs]}")
    return "\n".join(lines)


def _export_parent(ref: str, target: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)


def _copy_working_tree(target: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is gone
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if done.returncode != 0:
        raise RuntimeError(f"{checkout.name}: perfbench exited with "
                           f"{done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="timed phase per run (default: BENCHMARK.json's, %(default)s)")
    parser.add_argument("--parent", default="HEAD",
                        help="git ref of the parent side (default: %(default)s)")
    parser.add_argument("--pr", type=int, default=None,
                        help="value of the records' pr field")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    parent_runs: List[dict] = []
    change_runs: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        sides = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        for checkout in sides.values():
            checkout.mkdir()
        _export_parent(args.parent, sides["parent"])
        _copy_working_tree(sides["change"])
        runs = {"parent": parent_runs, "change": change_runs}
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    result = _run(sides[side], args.workload, args.seed, args.seconds)
                except RuntimeError as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 1
                runs[side].append(result)
                shown = {name: round(entry["value"], 3)
                         for name, entry in result["metrics"].items()}
                print(f"pair {index + 1}/{args.pairs} {side}: {shown} "
                      f"failed={result['failed']}", file=sys.stderr, flush=True)
    records = summarize(parent_runs, change_runs, benchmark["end_to_end"],
                        args.workload, args.seed, args.seconds, pr=args.pr)
    print(format_summary(records, parent_runs, change_runs))
    for record in records:
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
