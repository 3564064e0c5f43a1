"""Streaming merge of per-shard results stores into one canonical store.

Each worker group writes its own shard (no cross-process SQLite
contention); this module folds any number of shards into the canonical
store the ``report --db`` CLI reads.  Three guarantees:

* **Schema agreement** — every shard (and the destination) must carry the
  current :data:`~repro.experiments.results.SCHEMA_VERSION`; opening a
  shard written by a different encoding raises instead of mixing
  incompatible rows (:class:`~repro.experiments.results.ResultsStore`
  enforces this on open).
* **Hash-keyed dedup** — a cell executed by two workers (a stolen lease
  whose original owner had already written its shard) merges into exactly
  one canonical record.  If two shards ever disagree on the *content* of
  the same hash, the merge refuses loudly: identical specs must produce
  identical rows, so a conflict means corruption, not a race.
* **Byte identity** — records are copied as raw stored text
  (:meth:`~repro.experiments.results.ResultsStore.record_raw`), never
  decoded and re-encoded, so NaN/±inf rows and repr-exact floats survive
  the merge byte for byte and the merged report is identical to the
  single-process one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.experiments.results import ResultsStore


class MergeConflictError(ValueError):
    """Two shards store different rows under the same content hash."""


@dataclass
class MergeReport:
    """What one merge folded together."""

    destination: str
    shards: List[str] = field(default_factory=list)
    merged: int = 0
    duplicates: int = 0

    def format_line(self) -> str:
        return (f"fabric: merged {self.merged} cells from {len(self.shards)} "
                f"shards into {self.destination} "
                f"({self.duplicates} duplicates skipped)")


def merge_shards(shard_paths: List[str], dest_path: str) -> MergeReport:
    """Fold shard stores into ``dest_path`` (streaming, hash-deduplicated).

    Raises :class:`ValueError` on a shard with a mismatched schema version
    and :class:`MergeConflictError` on row disagreement.
    """
    report = MergeReport(destination=dest_path)
    with ResultsStore(dest_path) as dest:
        for shard_path in shard_paths:
            # ResultsStore.__init__ refuses mismatched schema versions, so a
            # shard written by older code never contaminates the merge.
            with ResultsStore(shard_path) as shard:
                report.shards.append(shard_path)
                for record in shard.iter_records():
                    if dest.record_raw(record):
                        report.merged += 1
                        continue
                    existing = dest.raw_row_json(record.spec_hash)
                    if existing != record.row_json:
                        raise MergeConflictError(
                            f"shard {shard_path!r} stores different rows for "
                            f"cell {record.spec_hash[:12]}… ({record.run_id}) "
                            f"than already merged — identical specs must "
                            f"produce identical rows; refusing to merge")
                    report.duplicates += 1
    return report
