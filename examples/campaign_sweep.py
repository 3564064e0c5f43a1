#!/usr/bin/env python3
"""Detector-vs-baselines campaign with a resumable results store.

This example runs the ``campaign`` experiment
(:mod:`repro.experiments.campaign`): every cell is one full-stack MANET
scenario, and the paper's detector *and* the related-work baselines
(:mod:`repro.baselines`) judge the same investigation answers, one row per
system.  Every completed cell is committed to an SQLite results store
(:mod:`repro.experiments.results`); the second invocation of the identical
grid resumes from the store: nothing is re-simulated, the report is rebuilt
from the database and is byte-identical to the first one.

The same sweep is available from the unified experiments CLI::

    python -m repro.experiments run campaign \
        --axis total_nodes=12 --axis liar_fraction=0.0,0.25 \
        --param warmup=25 --param cycles=3 --workers 4 \
        --db campaign.sqlite --resume

    python -m repro.experiments report --db campaign.sqlite \
        --experiment campaign --axis total_nodes=12 \
        --axis liar_fraction=0.0,0.25 --param warmup=25 --param cycles=3

Usage::

    python examples/campaign_sweep.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.experiments import ResultsStore, aggregate_rows, format_table, run_experiment
from repro.experiments.campaign import SYSTEMS

AXES = {"total_nodes": (12,), "liar_fraction": (0.0, 0.25)}
PARAMS = {"warmup": 25.0, "cycles": 3}


def main() -> int:
    workers = min(4, os.cpu_count() or 1)
    print(f"Running {len(AXES['liar_fraction'])} seeded scenario cells, each "
          f"judged by {len(SYSTEMS)} systems...")

    with tempfile.TemporaryDirectory() as tmp:
        db_path = os.path.join(tmp, "campaign.sqlite")

        with ResultsStore(db_path) as store:
            started = time.perf_counter()
            result = run_experiment("campaign", axes=AXES, params=PARAMS,
                                    workers=workers, store=store)
            cold = time.perf_counter() - started
            report = result.format_report()
            rows = result.rows()  # materialise before the store closes
        print(f"\nCold run: executed {len(result.executed_run_ids)} cells "
              f"in {cold:.1f} s on {workers} workers.\n")
        print(report)

        # Re-invoking the identical grid resumes from the store: zero cells
        # execute and the report is rebuilt from SQLite, byte for byte.
        with ResultsStore(db_path) as store:
            started = time.perf_counter()
            resumed = run_experiment("campaign", axes=AXES, params=PARAMS,
                                     workers=workers, store=store)
            warm = time.perf_counter() - started
            resumed_report = resumed.format_report()
        print(f"\nResumed run: skipped {len(resumed.skipped_run_ids)} stored "
              f"cells in {warm * 1000:.0f} ms; report byte-identical: "
              f"{resumed_report == report}.")

    # Score and flag columns mean something different per system (five
    # distinct decision rules), so means are only comparable within one.
    print()
    print(format_table(
        aggregate_rows(rows, ("system", "liar_fraction"),
                       ("flagged", "final_detect", "attacker_trust")),
        title="Per-system means by liar fraction"))

    detects = {row["liar_fraction"]: row["final_detect"]
               for row in rows if row["system"] == "detector"}
    print("\nThe detector's aggregate (Eq. 8) per liar fraction:")
    for fraction in sorted(detects):
        value = detects[fraction]
        rendered = f"{value:+.3f}" if value is not None else "n/a"
        print(f"  Detect = {rendered} at liar fraction {fraction:g}")
    print("The baselines have no confidence gate (Eq. 10): they flag on raw "
          "counts, while the paper's decision rule only convicts once the "
          "confidence interval clears gamma — fewer false alarms at the price "
          "of needing more responders per round.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
