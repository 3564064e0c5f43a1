"""Work-stealing dispatch queue for distributed campaigns.

The queue is one SQLite file (WAL mode, shared filesystem) holding every
pending cell of one or more dispatched experiments.  Ownership is
*lease-based*: a worker claims a batch of cells under a TTL lease
(:meth:`FabricQueue.claim`), heartbeats to extend it while executing
(:meth:`FabricQueue.heartbeat`) and marks each cell done as its rows land in
the worker's shard store (:meth:`FabricQueue.complete`).  A worker that dies
simply stops heartbeating — once its leases expire, any other worker's next
``claim`` *steals* the cells, so a killed worker costs the campaign only its
in-flight batch, never a stuck queue.

Stealing is safe because the cell's content hash is an idempotency key: the
same spec always produces the same rows, so a cell that was executed twice
(killed after the shard write but before ``complete``) merges into one
canonical row (:mod:`repro.fabric.merge` deduplicates by hash).

The queue also records, per experiment, the *run context* (backend, base
seed, axis/parameter overrides) the dispatcher expanded the grid with;
``fabric status`` lists the dispatched experiments from it.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from threading import Lock
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.engine import (
    ExperimentSpec,
    expand_experiment,
    spec_from_jsonable,
    spec_to_jsonable,
)
from repro.experiments.results import SCHEMA_VERSION, ResultsStore

#: Bump when the queue's table layout or claim protocol changes; a queue
#: written by an incompatible version is refused, never reinterpreted.
FABRIC_SCHEMA_VERSION = 1

#: Cell lifecycle states.  ``pending`` → claimable; ``leased`` → owned by a
#: worker until ``lease_expires`` (after which it is claimable again —
#: that is the work-stealing); ``done`` → rows are durable in a shard store.
CELL_STATES = ("pending", "leased", "done")


@dataclass(frozen=True)
class ClaimedCell:
    """One cell handed to a worker by :meth:`FabricQueue.claim`."""

    spec: ExperimentSpec
    spec_hash: str
    #: Whether this claim took over an expired lease from another worker.
    stolen: bool


@dataclass
class DispatchReport:
    """What one ``dispatch`` invocation enqueued."""

    experiment: str
    queue_path: str
    cells: int
    enqueued: int
    already_queued: int
    already_stored: int

    def format_line(self) -> str:
        return (f"fabric: {self.experiment}: {self.cells} cells -> "
                f"{self.enqueued} enqueued, {self.already_queued} already "
                f"queued, {self.already_stored} already stored")


class FabricQueue:
    """The durable dispatch queue (see module docstring).

    Safe for concurrent use from many worker processes: every claim runs in
    a ``BEGIN IMMEDIATE`` transaction so two workers can never claim the
    same cell, and a generous busy timeout absorbs write contention.  One
    instance may also be shared between the threads of one process (the
    worker's heartbeat thread) — all statements run under an internal lock.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = Lock()
        self._connection = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False, timeout=30.0
        )
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.execute("PRAGMA busy_timeout=30000")
        self._create_schema()

    # ------------------------------------------------------------ lifecycle
    def _create_schema(self) -> None:
        with self._lock:
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            self._connection.execute(
                """
                CREATE TABLE IF NOT EXISTS cells (
                    spec_hash     TEXT PRIMARY KEY,
                    experiment    TEXT NOT NULL,
                    run_id        TEXT NOT NULL,
                    spec_json     TEXT NOT NULL,
                    state         TEXT NOT NULL DEFAULT 'pending',
                    owner         TEXT,
                    lease_expires REAL,
                    attempts      INTEGER NOT NULL DEFAULT 0
                )
                """
            )
            self._connection.execute(
                "CREATE INDEX IF NOT EXISTS idx_cells_state ON cells (state)"
            )
            for key, expected in (("fabric_schema_version", FABRIC_SCHEMA_VERSION),
                                  ("store_schema_version", SCHEMA_VERSION)):
                row = self._connection.execute(
                    "SELECT value FROM meta WHERE key = ?", (key,)
                ).fetchone()
                if row is None:
                    self._connection.execute(
                        "INSERT INTO meta (key, value) VALUES (?, ?)",
                        (key, str(expected)),
                    )
                elif int(row[0]) != expected:
                    raise ValueError(
                        f"fabric queue {self.path!r} has {key} {row[0]}, "
                        f"this code expects {expected}")

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "FabricQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def _transaction(self):
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                yield self._connection
            except BaseException:
                self._connection.execute("ROLLBACK")
                raise
            else:
                self._connection.execute("COMMIT")

    # ------------------------------------------------------------- contexts
    def set_context(self, experiment: str, context: Mapping[str, object]) -> None:
        """Record the run context one experiment was dispatched with."""
        payload = json.dumps(context, sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (f"context:{experiment}", payload),
            )

    def get_context(self, experiment: str) -> Optional[Dict[str, object]]:
        """The stored run context of one experiment, or ``None``."""
        with self._lock:
            row = self._connection.execute(
                "SELECT value FROM meta WHERE key = ?", (f"context:{experiment}",)
            ).fetchone()
        return None if row is None else json.loads(row[0])

    def iter_contexts(self) -> List:
        """Every ``(experiment, context_json)`` pair stored in the queue."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT key, value FROM meta WHERE key LIKE 'context:%' ORDER BY key"
            ).fetchall()
        return [(key.partition(":")[2], value) for key, value in rows]

    # ------------------------------------------------------------ enqueuing
    def add_cells(self, specs: Sequence[ExperimentSpec],
                  hashes: Sequence[str]) -> int:
        """Enqueue cells (idempotent); returns how many were newly added.

        A hash already present — pending, leased or done — is left exactly
        as it is, so re-dispatching the same grid never disturbs running
        workers or re-executes completed cells.
        """
        added = 0
        with self._transaction() as connection:
            for spec, digest in zip(specs, hashes):
                cursor = connection.execute(
                    "INSERT OR IGNORE INTO cells "
                    "(spec_hash, experiment, run_id, spec_json) VALUES (?, ?, ?, ?)",
                    (digest, spec.experiment, spec.run_id,
                     json.dumps(spec_to_jsonable(spec), sort_keys=True)),
                )
                added += cursor.rowcount
        return added

    # -------------------------------------------------------------- leasing
    def claim(self, owner: str, batch_size: int, lease_ttl: float,
              now: Optional[float] = None) -> List[ClaimedCell]:
        """Atomically claim up to ``batch_size`` cells under a TTL lease.

        Claimable cells are the ``pending`` ones plus any ``leased`` cell
        whose lease expired — claiming the latter is the work-stealing that
        recovers a killed worker's batch.  Cells come back in enqueue order,
        which is expansion order, so shard stores fill roughly in report
        order.
        """
        now = time.time() if now is None else now
        claimed: List[ClaimedCell] = []
        with self._transaction() as connection:
            rows = connection.execute(
                "SELECT spec_hash, spec_json, state FROM cells "
                "WHERE state = 'pending' "
                "OR (state = 'leased' AND lease_expires < ?) "
                "ORDER BY rowid LIMIT ?",
                (now, batch_size),
            ).fetchall()
            for spec_hash, spec_json, state in rows:
                connection.execute(
                    "UPDATE cells SET state = 'leased', owner = ?, "
                    "lease_expires = ?, attempts = attempts + 1 "
                    "WHERE spec_hash = ?",
                    (owner, now + lease_ttl, spec_hash),
                )
                claimed.append(ClaimedCell(
                    spec=spec_from_jsonable(json.loads(spec_json)),
                    spec_hash=spec_hash,
                    stolen=(state == "leased"),
                ))
        return claimed

    def heartbeat(self, owner: str, hashes: Sequence[str], lease_ttl: float,
                  now: Optional[float] = None) -> int:
        """Extend the lease on cells this owner still holds; returns count.

        A return value smaller than ``len(hashes)`` means some leases were
        lost (expired *and* stolen); the worker should stop executing those
        cells — their rows would be redundant, though never harmful.
        """
        if not hashes:
            return 0
        now = time.time() if now is None else now
        placeholders = ",".join("?" for _ in hashes)
        with self._lock:
            cursor = self._connection.execute(
                f"UPDATE cells SET lease_expires = ? WHERE spec_hash IN "
                f"({placeholders}) AND owner = ? AND state = 'leased'",
                (now + lease_ttl, *hashes, owner),
            )
        return cursor.rowcount

    def complete(self, owner: str, spec_hash: str) -> bool:
        """Mark one leased cell done; ``False`` when the lease was lost.

        Losing the race (another worker stole the expired lease) is benign:
        the rows are already durable in this worker's shard store and the
        merge deduplicates by content hash.
        """
        with self._lock:
            cursor = self._connection.execute(
                "UPDATE cells SET state = 'done', lease_expires = NULL "
                "WHERE spec_hash = ? AND owner = ? AND state = 'leased'",
                (spec_hash, owner),
            )
        return cursor.rowcount > 0

    def release(self, owner: str) -> int:
        """Return this owner's unfinished leases to ``pending`` (clean exit)."""
        with self._lock:
            cursor = self._connection.execute(
                "UPDATE cells SET state = 'pending', owner = NULL, "
                "lease_expires = NULL WHERE owner = ? AND state = 'leased'",
                (owner,),
            )
        return cursor.rowcount

    # ------------------------------------------------------------- progress
    def counts(self) -> Dict[str, int]:
        """Cells per state (absent states map to 0)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT state, COUNT(*) FROM cells GROUP BY state"
            ).fetchall()
        result = {state: 0 for state in CELL_STATES}
        result.update(dict(rows))
        return result

    def unfinished(self) -> int:
        """Cells not yet done (pending plus leased)."""
        with self._lock:
            return self._connection.execute(
                "SELECT COUNT(*) FROM cells WHERE state != 'done'"
            ).fetchone()[0]

    def claimable(self, now: Optional[float] = None) -> int:
        """Cells a ``claim`` issued right now would consider."""
        now = time.time() if now is None else now
        with self._lock:
            return self._connection.execute(
                "SELECT COUNT(*) FROM cells WHERE state = 'pending' "
                "OR (state = 'leased' AND lease_expires < ?)",
                (now,),
            ).fetchone()[0]


def dispatch_experiment(
    queue_path: str,
    experiment: str,
    backend: Optional[str] = None,
    base_seed: Optional[int] = None,
    axes: Optional[Mapping[str, Sequence]] = None,
    params: Optional[Mapping[str, object]] = None,
    resume_store: Optional[ResultsStore] = None,
) -> DispatchReport:
    """Expand one experiment and enqueue its missing cells for workers.

    ``resume_store`` (typically the canonical merged store of a previous
    run) filters out cells whose content hash is already completed, exactly
    like the engine's own resume path.  The run context is recorded in the
    queue alongside the cells.
    """
    _, specs, hashes = expand_experiment(
        experiment, backend=backend, base_seed=base_seed, axes=axes, params=params)
    stored = set()
    if resume_store is not None:
        stored = resume_store.completed_hashes(hashes)
    pending = [(spec, digest) for spec, digest in zip(specs, hashes)
               if digest not in stored]
    with FabricQueue(queue_path) as queue:
        queue.set_context(experiment, {
            "backend": backend,
            "base_seed": base_seed,
            "axes": {name: list(values) for name, values in (axes or {}).items()},
            "params": dict(params or {}),
        })
        added = queue.add_cells([spec for spec, _ in pending],
                                [digest for _, digest in pending])
    return DispatchReport(
        experiment=experiment,
        queue_path=queue_path,
        cells=len(specs),
        enqueued=added,
        already_queued=len(pending) - added,
        already_stored=len(stored),
    )
