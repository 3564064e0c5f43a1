"""Shard-merge edge cases: duplicates, schema refusal, hostile float rows."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.engine import ExperimentSpec
from repro.experiments.results import ResultsStore, StoreRecord
from repro.fabric import MergeConflictError, merge_shards


def _spec(run_id: str, seed: int = 1) -> ExperimentSpec:
    return ExperimentSpec(experiment="edge", cell_id=run_id,
                          run_id=f"edge/{run_id}", seed=seed,
                          backend="oracle", params=(("rounds", 3),))


def _shard(tmp_path, name: str, cells) -> str:
    path = str(tmp_path / f"shard-{name}.sqlite")
    with ResultsStore(path) as store:
        for spec, rows in cells:
            store.record(spec, rows)
    return path


def test_duplicate_hashes_across_shards_merge_once(tmp_path):
    spec_shared = _spec("shared")
    spec_a, spec_b = _spec("only-a", seed=2), _spec("only-b", seed=3)
    row_shared = [{"run_id": spec_shared.run_id, "x": 0.1 + 0.2}]
    shard_a = _shard(tmp_path, "a", [(spec_shared, row_shared),
                                     (spec_a, [{"run_id": spec_a.run_id}])])
    shard_b = _shard(tmp_path, "b", [(spec_shared, row_shared),
                                     (spec_b, [{"run_id": spec_b.run_id}])])
    dest = str(tmp_path / "merged.sqlite")
    report = merge_shards([shard_a, shard_b], dest)
    assert report.merged == 3
    assert report.duplicates == 1
    with ResultsStore(dest) as store:
        assert len(store) == 3
        assert store.has_cell(spec_shared.content_hash())


def test_conflicting_rows_under_same_hash_refuse_to_merge(tmp_path):
    spec = _spec("conflict")
    shard_a = _shard(tmp_path, "a", [(spec, [{"run_id": spec.run_id, "x": 1}])])
    shard_b = _shard(tmp_path, "b", [(spec, [{"run_id": spec.run_id, "x": 2}])])
    dest = str(tmp_path / "merged.sqlite")
    with pytest.raises(MergeConflictError, match="identical specs"):
        merge_shards([shard_a, shard_b], dest)


def test_mismatched_schema_version_shard_is_refused(tmp_path):
    good = _shard(tmp_path, "good", [(_spec("ok"), [{"run_id": "edge/ok"}])])
    stale = _shard(tmp_path, "stale", [(_spec("old"), [{"run_id": "edge/old"}])])
    with ResultsStore(stale) as store:
        store._connection.execute(
            "UPDATE meta SET value = '3' WHERE key = 'schema_version'")
    dest = str(tmp_path / "merged.sqlite")
    with pytest.raises(ValueError, match="schema version 3"):
        merge_shards([good, stale], dest)


def test_nan_and_inf_rows_survive_merge_byte_identically(tmp_path):
    spec = _spec("hostile")
    rows = [{"run_id": spec.run_id, "nan": float("nan"),
             "pos": float("inf"), "neg": float("-inf"),
             "finite": 0.1 + 0.2}]
    shard = _shard(tmp_path, "hostile", [(spec, rows)])
    digest = spec.content_hash()
    with ResultsStore(shard) as store:
        raw_shard = store.raw_row_json(digest)

    dest = str(tmp_path / "merged.sqlite")
    merge_shards([shard, shard], dest)  # same shard twice: dedup must hold
    with ResultsStore(dest) as store:
        assert store.raw_row_json(digest) == raw_shard  # byte-identical copy
        merged = store.get_row(digest)[0]
        assert math.isnan(merged["nan"])
        assert merged["pos"] == float("inf")
        assert merged["neg"] == float("-inf")
        assert merged["finite"] == 0.1 + 0.2


def test_merge_copies_raw_records_not_reencoded_json(tmp_path):
    """record_raw must not normalise stored text (key order, spacing)."""
    record = StoreRecord(spec_hash="cafe" * 16, run_id="edge/raw",
                         spec_json='{"b": 1, "a": 2}',
                         row_json='[{"z": 1.0,   "a": NaN}]')
    shard = str(tmp_path / "shard-raw.sqlite")
    with ResultsStore(shard) as store:
        assert store.record_raw(record) is True
        assert store.record_raw(record) is False  # idempotent, not replaced
    dest = str(tmp_path / "merged.sqlite")
    merge_shards([shard], dest)
    with ResultsStore(dest) as store:
        assert store.raw_row_json(record.spec_hash) == record.row_json
        assert json.loads(store.iter_records().__next__().spec_json) == \
            {"b": 1, "a": 2}
