"""End-to-end fabric tests: worker groups, kill/steal recovery, merged parity.

The acceptance bar of the fabric is byte identity: a campaign sharded
across worker groups — including one whose worker dies mid-run and whose
lease is re-dispatched — must merge into a store whose report is identical
to the single-process run of the same spec.
"""

from __future__ import annotations

import pytest

from repro.experiments.engine import run_experiment
from repro.experiments.results import ResultsStore
from repro.fabric import (
    FabricQueue,
    dispatch_experiment,
    merge_shards,
    run_worker,
    shard_store_path,
)

_EXPERIMENT = "confidence_sweep"
_PARAMS = {"rounds": 5}


@pytest.fixture(scope="module")
def golden_report() -> str:
    """The single-process report every fabric run must reproduce."""
    return run_experiment(_EXPERIMENT, params=_PARAMS).format_report()


def _dispatch(tmp_path) -> str:
    queue_path = str(tmp_path / "fabric.sqlite")
    dispatch_experiment(queue_path, _EXPERIMENT, params=_PARAMS)
    return queue_path


def _merged_report(shard_paths, tmp_path) -> str:
    merged_path = str(tmp_path / "merged.sqlite")
    merge_shards(list(shard_paths), merged_path)
    with ResultsStore(merged_path) as store:
        result = run_experiment(_EXPERIMENT, params=_PARAMS, store=store,
                                resume=True, max_new_runs=0)
        assert result.executed_run_ids == []
        return result.format_report()


def test_two_worker_groups_merge_to_byte_identical_report(tmp_path, golden_report):
    queue_path = _dispatch(tmp_path)
    shard_dir = str(tmp_path / "shards")
    a = run_worker(queue_path, "a", shard_dir, batch_size=2, max_cells=4)
    b = run_worker(queue_path, "b", shard_dir, batch_size=3)
    assert a.executed == 4 and b.executed == 5
    assert a.shard_path == shard_store_path(shard_dir, "a")
    with FabricQueue(queue_path) as queue:
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 9}
    # Each group wrote only its own shard; together they cover the grid.
    with ResultsStore(a.shard_path) as shard:
        assert len(shard) == 4
    report = _merged_report([a.shard_path, b.shard_path], tmp_path)
    assert report == golden_report


def test_killed_worker_lease_is_redispatched_and_report_identical(
        tmp_path, golden_report):
    """The acceptance scenario: one worker dies mid-run, another recovers.

    The kill is simulated at the protocol level — a worker that claimed a
    batch under a short lease and then vanished without completing or
    releasing it (exactly the state a SIGKILL leaves behind).  A live
    worker must wait out the TTL, steal the batch, and the merged report
    must still be byte-identical to the single-process run.
    """
    queue_path = _dispatch(tmp_path)
    with FabricQueue(queue_path) as queue:
        ghost_batch = queue.claim("ghost", 3, lease_ttl=0.2)
        assert len(ghost_batch) == 3
    live = run_worker(queue_path, "live", str(tmp_path / "shards"),
                      batch_size=2, lease_ttl=2.0, poll=0.05)
    assert live.executed == 9
    assert live.stolen == 3  # the ghost's whole in-flight batch, nothing more
    report = _merged_report([live.shard_path], tmp_path)
    assert report == golden_report


def test_duplicate_execution_after_steal_merges_once(tmp_path, golden_report):
    """A stolen cell the dead worker *had* executed merges to one record."""
    queue_path = _dispatch(tmp_path)
    shard_dir = str(tmp_path / "shards")
    # The doomed worker completes its shard write for 2 cells but "dies"
    # before marking them done: max_cells stops it, then we forcibly reset
    # its completions to simulate the crash window between the shard commit
    # and the queue update.
    doomed = run_worker(queue_path, "doomed", shard_dir, batch_size=2,
                        max_cells=2)
    assert doomed.executed == 2
    with FabricQueue(queue_path) as queue:
        queue._connection.execute(
            "UPDATE cells SET state = 'pending', owner = NULL, "
            "lease_expires = NULL WHERE state = 'done'")
    live = run_worker(queue_path, "live", shard_dir, batch_size=4)
    assert live.executed == 9  # re-executed the 2 doomed cells too
    merged_path = str(tmp_path / "merged.sqlite")
    merge_report = merge_shards([doomed.shard_path, live.shard_path],
                                merged_path)
    assert merge_report.merged == 9
    assert merge_report.duplicates == 2
    with ResultsStore(merged_path) as store:
        assert len(store) == 9
        result = run_experiment(_EXPERIMENT, params=_PARAMS, store=store,
                                resume=True, max_new_runs=0)
        assert result.format_report() == golden_report


def test_worker_without_wait_returns_while_leases_are_live(tmp_path):
    queue_path = _dispatch(tmp_path)
    with FabricQueue(queue_path) as queue:
        queue.claim("other", 9, lease_ttl=300.0)
    report = run_worker(queue_path, "idle", str(tmp_path / "shards"),
                        wait_for_work=False)
    assert report.executed == 0
    assert report.batches == 0


def test_worker_resumes_a_partially_done_queue(tmp_path, golden_report):
    queue_path = _dispatch(tmp_path)
    shard_dir = str(tmp_path / "shards")
    first = run_worker(queue_path, "a", shard_dir, max_cells=6)
    second = run_worker(queue_path, "a", shard_dir)  # same group, same shard
    assert first.executed + second.executed == 9
    report = _merged_report([shard_store_path(shard_dir, "a")], tmp_path)
    assert report == golden_report


def test_campaign_dispatched_to_two_groups_merges_to_run_report(tmp_path):
    """The campaign experiment distributes like any other: two worker
    groups each execute one cell, and the merged store reports the same
    bytes as the single-process run."""
    axes = {"total_nodes": (8,), "liar_fraction": (0.0, 0.25)}
    params = {"warmup": 20.0, "cycles": 1}
    golden = run_experiment("campaign", axes=axes, params=params).format_report()
    queue_path = str(tmp_path / "fabric.sqlite")
    assert dispatch_experiment(queue_path, "campaign", axes=axes,
                               params=params).enqueued == 2
    shard_dir = str(tmp_path / "shards")
    a = run_worker(queue_path, "a", shard_dir, batch_size=1, max_cells=1)
    b = run_worker(queue_path, "b", shard_dir, batch_size=1)
    assert (a.executed, b.executed) == (1, 1)
    merged_path = str(tmp_path / "merged.sqlite")
    assert merge_shards([a.shard_path, b.shard_path], merged_path).merged == 2
    with ResultsStore(merged_path) as store:
        merged = run_experiment("campaign", axes=axes, params=params,
                                store=store, max_new_runs=0)
        assert merged.executed_run_ids == []
        assert merged.format_report() == golden
