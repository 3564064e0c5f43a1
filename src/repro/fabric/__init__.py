"""Distributed campaign fabric: dispatch, work-steal, merge.

Architecture
------------
The experiment engine (:mod:`repro.experiments.engine`) executes a campaign
as one process pool writing one SQLite file — a ceiling once grids reach
thousands of cells or must span machines.  This package splits the
engine's *queue* from its *workers* without changing what a cell is: the
:class:`~repro.experiments.engine.ExperimentSpec` content hash remains the
single identity a result is keyed by, which is what makes every stage of
the fabric idempotent and crash-tolerant.

* **Dispatch** (:mod:`repro.fabric.dispatcher`) — expands a registered
  experiment through the exact same
  :func:`~repro.experiments.engine.expand_experiment` path as a local run
  and enqueues the missing cells into a :class:`FabricQueue` (one WAL-mode
  SQLite file on a shared filesystem).  The run context (backend, seed,
  axis overrides) is recorded alongside; ``fabric status`` lists the
  dispatched experiments from it.

* **Work** (:mod:`repro.fabric.worker`) — each worker group claims batches
  under a **TTL lease**, heartbeats while executing, writes completed rows
  to its **own shard store** (``shard-<group>.sqlite``; no cross-process
  SQLite contention) and marks cells done.  A killed worker simply stops
  heartbeating: its leases lapse and the next ``claim`` by any live worker
  *steals* the batch — the campaign loses only in-flight work, never
  progress, and never stalls.

* **Merge** (:mod:`repro.fabric.merge`) — streams shard records into the
  canonical store, deduplicating by content hash (a stolen-then-reexecuted
  cell merges to one row), refusing schema-version mismatches, and copying
  raw stored text so NaN/±inf rows — and therefore reports — stay
  byte-identical to a single-process run: ``python -m repro.experiments
  report --db MERGED --experiment NAME`` (with the dispatch's flags) prints
  the same bytes as ``run NAME``.

Because every stage communicates only through content-hash-keyed SQLite
files, the fabric needs no daemon, broker or third-party dependency, and
any stage can be re-run at any time: re-dispatching adds nothing, workers
re-executing a cell produce identical rows, and re-merging is a no-op.

CLI: ``python -m repro.experiments fabric dispatch|work|merge|status``
(see :mod:`repro.fabric.cli`).
"""

from repro.fabric.dispatcher import (
    FABRIC_SCHEMA_VERSION,
    ClaimedCell,
    DispatchReport,
    FabricQueue,
    dispatch_experiment,
)
from repro.fabric.merge import MergeConflictError, MergeReport, merge_shards
from repro.fabric.worker import WorkerReport, run_worker, shard_store_path

__all__ = [
    "FABRIC_SCHEMA_VERSION",
    "ClaimedCell",
    "DispatchReport",
    "FabricQueue",
    "dispatch_experiment",
    "MergeConflictError",
    "MergeReport",
    "merge_shards",
    "WorkerReport",
    "run_worker",
    "shard_store_path",
]
