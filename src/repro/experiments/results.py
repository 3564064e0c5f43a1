"""SQLite-backed, resumable experiment results store.

An experiment run (:func:`~repro.experiments.engine.run_experiment`) can
take minutes to hours; :class:`ResultsStore` makes its results durable and
the run *resumable*:

* every completed cell is committed to SQLite as soon as its worker returns,
  keyed by a **content hash** of the fully-resolved
  :class:`~repro.experiments.engine.ExperimentSpec`;
* the engine skips cells whose hash is already present, so a killed run
  restarted with the same grid executes only the missing cells and still
  produces a report byte-identical to an uninterrupted run;
* reporting streams rows straight from the database cursor, one cell at a
  time, so aggregating a huge stored run never materialises every result
  row in memory.

Schema (version 5)
------------------
Two tables, created on first open::

    meta(key TEXT PRIMARY KEY, value TEXT)
        -- carries schema_version; opening a store with an unknown version
        -- raises instead of silently corrupting it.
    runs(
        spec_hash TEXT PRIMARY KEY,   -- content hash, see spec_content_hash()
        run_id    TEXT NOT NULL,      -- human-readable cell id (indexed)
        spec_json TEXT NOT NULL,      -- canonical JSON of the ExperimentSpec
        row_json  TEXT NOT NULL       -- the cell's rows, a JSON list
    )

The database is opened in WAL journal mode so a reader (``report``
subcommand, live monitoring) never blocks the writer appending finished
cells.

Content-hash key
----------------
:func:`spec_content_hash` is the SHA-256 of the canonical JSON encoding
(sorted keys, no whitespace) of *every* field of the spec dataclass — the
experiment, cell id, derived per-cell seed, backend and every parameter —
prefixed with a schema label.  Two specs collide only if they would execute
the identical simulation; changing any knob (or the schema version) yields
a fresh key, so stale rows from older configurations are never silently
reused.

Resume guarantees
-----------------
Rows are committed one cell at a time (autocommit), so after a crash the
store holds exactly the cells whose workers finished.  Because every cell
derives all of its randomness from its own stable seed, re-running the
missing cells in any order — or from any number of worker processes —
reproduces the uninterrupted run's report byte for byte.  Stored rows
round-trip through JSON (``repr``-exact floats), which keeps stored-row
reports bit-identical to freshly-computed ones.  ``scripts/resume_smoke.sh``
checks this through the CLI: it SIGKILLs a ``run --db`` once a cell is
committed, resumes it and compares the report with an uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from dataclasses import asdict
from typing import Dict, Iterable, Iterator, List, Optional, Set

#: Bump when the row/spec encoding changes *or* when the simulation an
#: identical spec produces changes (e.g. RNG-derivation fixes); part of every
#: content hash, so a store written by an older encoding is never silently
#: reused.  2: unified-engine PR — stable_seed derivations replaced the ad-hoc
#: seed arithmetic, so pre-PR rows no longer match what their specs produce.
#: 3: scenario-library PR — the netsim backend now honours the spec's trust
#: parameters and ``random_initial_trust``, so identical netsim specs
#: simulate differently than under version 2.
#: 4: routing-layer PR — ``protocol`` became a netsim parameter (part of the
#: hashed parameter tuple) and the node stack moved onto the shared
#: ``RoutingProtocol`` base, so version-3 rows must not be reused.
#: 5: one experiment runtime — the campaign-only ``runs.system`` column is
#: gone and every cell stores its rows as a JSON list; rows and reports are
#: unchanged, but a version-4 store has the old table layout.
SCHEMA_VERSION = 5


def spec_content_hash(spec) -> str:
    """Content hash identifying one fully-resolved experiment cell.

    ``spec`` is an :class:`~repro.experiments.engine.ExperimentSpec` (or any
    dataclass with the same role): the hash covers every field — experiment,
    cell id, seed, backend and parameters — plus the store schema version.
    """
    payload = {"schema": SCHEMA_VERSION}
    payload.update(asdict(spec))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultsStore:
    """Durable store of completed experiment cells (see module docstring).

    Usable as a context manager; safe to reopen over an existing database
    (the schema is created only when missing).  One instance wraps one
    :mod:`sqlite3` connection and therefore belongs to one process — worker
    processes return plain rows and only the parent writes.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        # isolation_level=None → autocommit: every finished cell is durable
        # immediately, which is what makes a killed run resumable.
        self._connection = sqlite3.connect(path, isolation_level=None)
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._create_schema()

    # ------------------------------------------------------------ lifecycle
    def _create_schema(self) -> None:
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        self._connection.execute(
            """
            CREATE TABLE IF NOT EXISTS runs (
                spec_hash TEXT PRIMARY KEY,
                run_id    TEXT NOT NULL,
                spec_json TEXT NOT NULL,
                row_json  TEXT NOT NULL
            )
            """
        )
        self._connection.execute(
            "CREATE INDEX IF NOT EXISTS idx_runs_run_id ON runs (run_id)"
        )
        row = self._connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._connection.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        elif int(row[0]) != SCHEMA_VERSION:
            raise ValueError(
                f"results store {self.path!r} has schema version {row[0]}, "
                f"expected {SCHEMA_VERSION}"
            )

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- writing
    def record(self, spec, rows: List[Dict[str, object]],
               spec_hash: Optional[str] = None) -> str:
        """Persist one completed cell's rows; returns its content hash.

        Overwrites any previous rows under the same hash (identical spec →
        identical simulation, so a replace is always an idempotent refresh).
        """
        digest = spec_hash or spec_content_hash(spec)
        self._connection.execute(
            "INSERT OR REPLACE INTO runs (spec_hash, run_id, spec_json, row_json) "
            "VALUES (?, ?, ?, ?)",
            (
                digest,
                spec.run_id,
                json.dumps(asdict(spec), sort_keys=True),
                json.dumps(rows),
            ),
        )
        return digest

    # -------------------------------------------------------------- reading
    def __contains__(self, spec_hash: str) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM runs WHERE spec_hash = ?", (spec_hash,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        return self._connection.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def count_rows(self) -> int:
        """Total number of result rows across every stored cell.

        ``0`` means the store holds no results at all — ``report`` treats
        that as an error instead of printing an empty table that looks like
        success.
        """
        cursor = self._connection.execute("SELECT row_json FROM runs")
        return sum(len(json.loads(row_json)) for (row_json,) in cursor)

    def completed_hashes(self, hashes: Iterable[str]) -> Set[str]:
        """The members of ``hashes`` present in the store."""
        wanted = set(hashes)
        found: Set[str] = set()
        chunk: List[str] = []
        for digest in sorted(wanted):
            chunk.append(digest)
            if len(chunk) == 500:
                found |= self._completed_chunk(chunk)
                chunk = []
        if chunk:
            found |= self._completed_chunk(chunk)
        return found

    def _completed_chunk(self, chunk: List[str]) -> Set[str]:
        placeholders = ",".join("?" for _ in chunk)
        cursor = self._connection.execute(
            f"SELECT spec_hash FROM runs WHERE spec_hash IN ({placeholders})", chunk
        )
        return {row[0] for row in cursor}

    def get_row(self, spec_hash: str) -> Optional[List[Dict[str, object]]]:
        """The stored rows of one cell, or ``None`` when absent."""
        record = self._connection.execute(
            "SELECT row_json FROM runs WHERE spec_hash = ?", (spec_hash,)
        ).fetchone()
        if record is None:
            return None
        return json.loads(record[0])

    def iter_rows(self, hashes: Optional[Iterable[str]] = None) -> Iterator[Dict[str, object]]:
        """Stream result rows ordered by ``run_id`` (then hash, for stability).

        ``hashes`` restricts the stream to one run's cells — a store may hold
        several experiments side by side.  The rows come straight off the
        SQLite cursor, so memory stays constant regardless of run size
        (apart from the hash filter set itself and one cell's rows at a
        time).
        """
        wanted = set(hashes) if hashes is not None else None
        cursor = self._connection.execute(
            "SELECT spec_hash, row_json FROM runs ORDER BY run_id, spec_hash"
        )
        for spec_hash, row_json in cursor:
            if wanted is None or spec_hash in wanted:
                yield from json.loads(row_json)
