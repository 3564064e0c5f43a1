"""The summary of ``scripts/perf_pairs.py`` on synthetic runs."""

from __future__ import annotations

import importlib.util
import statistics
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _SCRIPT)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

_METRICS = [
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
]


def _run(throughput, rss, failed=0):
    return {"correct": not failed, "attempted": 6, "failed": failed,
            "metrics": {"throughput": {"value": throughput, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_counts_wins_by_each_metrics_direction():
    parent = [_run(100.0, 50.0), _run(110.0, 50.0), _run(90.0, 52.0), _run(105.0, 51.0)]
    change = [_run(120.0, 49.0), _run(100.0, 50.0), _run(95.0, 53.0), _run(105.0, 50.0)]
    throughput, rss = perf_pairs.summarize(parent, change, _METRICS,
                                           "dense-static", 3, 25, pr=25)
    # Higher is better: pairs 1 and 3 win, pair 4 ties and counts for neither.
    assert throughput["wins"] == 2
    # Lower is better: pairs 1 and 4 win, pair 2 ties.
    assert rss["wins"] == 2
    q1, median, q3 = statistics.quantiles([100.0, 110.0, 90.0, 105.0], n=4)
    assert throughput["parent"] == {"median": median, "q1": q1, "q3": q3}
    assert throughput["parent_iqr"] == pytest.approx(q3 - q1)
    assert throughput["change"]["median"] == statistics.median([120.0, 100.0, 95.0, 105.0])
    assert rss["parent"]["median"] == 50.5
    assert {key: throughput[key] for key in
            ("pr", "workload", "metric", "unit", "better", "seed", "run_seconds", "pairs")} == {
        "pr": 25, "workload": "dense-static", "metric": "throughput", "unit": "1/s",
        "better": "higher", "seed": 3, "run_seconds": 25, "pairs": 4}
    shown = perf_pairs.format_summary([throughput, rss], parent,
                                      [*change[:3], _run(105.0, 50.0, failed=1)])
    assert "wins 2/4 (lower is better)" in shown
    assert "change [0, 0, 0, 1]" in shown


def test_one_pair_has_no_quartiles_and_mismatched_sides_are_refused():
    (record, _) = perf_pairs.summarize([_run(1.0, 2.0)], [_run(2.0, 1.0)], _METRICS,
                                       "oracle-sweep", 1, 25)
    assert record["wins"] == 1
    assert record["parent"] == {"median": 1.0, "q1": None, "q3": None}
    assert record["parent_iqr"] is None
    with pytest.raises(ValueError):
        perf_pairs.summarize([_run(1.0, 2.0)], [], _METRICS, "oracle-sweep", 1, 25)
