"""Table E (extension) — resumable results store vs cold campaign re-runs.

Runs a detector-vs-baselines ``campaign`` grid once into an SQLite
:class:`~repro.experiments.results.ResultsStore`, then times a *resumed*
invocation of the identical grid: every cell's content hash is already
stored, so the resume executes zero simulations and only streams the stored
rows into the report.  The bench asserts the two properties the store
promises: the resumed report is byte-identical to the cold one, and the
resume is decisively faster than re-running the grid (the whole point of
persisting campaign results).

Like every file in this directory the test carries the ``bench`` marker
(applied by ``conftest.py``), so ``-m "not bench"`` keeps the fast tier-1
loop fast.
"""

from __future__ import annotations

import time

from repro.experiments.engine import run_experiment
from repro.experiments.results import ResultsStore

_AXES = {"total_nodes": (8, 12), "liar_fraction": (0.0, 0.25),
         "repetition": (0, 1)}
_PARAMS = {"warmup": 25.0, "cycles": 2}
_CELLS = 8


def _campaign(store=None):
    return run_experiment("campaign", axes=_AXES, params=_PARAMS, store=store)


def test_bench_resume_from_store_beats_cold_rerun(benchmark, emit, tmp_path):
    started = time.perf_counter()
    cold = _campaign()
    cold_seconds = time.perf_counter() - started
    cold_report = cold.format_report()
    assert cold.cells() == _CELLS

    db_path = str(tmp_path / "campaign.sqlite")
    with ResultsStore(db_path) as store:
        populated = _campaign(store=store)
        assert len(populated.executed_run_ids) == _CELLS

    def resumed_run() -> str:
        with ResultsStore(db_path) as store:
            result = _campaign(store=store)
            assert result.executed_run_ids == []
            assert len(result.skipped_run_ids) == _CELLS
            return result.format_report()

    resumed_report = benchmark.pedantic(resumed_run, rounds=3, iterations=1)
    assert resumed_report == cold_report

    resumed_seconds = benchmark.stats.stats.mean
    emit(
        "TABLE E (Results store, 8 cells)",
        f"cold run    : {cold_seconds:8.3f} s\n"
        f"resumed run : {resumed_seconds:8.3f} s  "
        f"(x{cold_seconds / max(resumed_seconds, 1e-9):.0f} faster, byte-identical report)",
    )
    # The resume replays stored rows instead of simulating; anything less
    # than a 5x win would mean the store is broken.
    assert resumed_seconds < cold_seconds / 5.0

    benchmark.extra_info.update({
        "cells": _CELLS,
        "cold_seconds": round(cold_seconds, 3),
    })
