"""Tests for the SQLite-backed experiment results store and resume semantics."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.__main__ import main
from repro.experiments.campaign import SYSTEMS
from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.experiments.report import aggregate_rows
from repro.experiments.results import ResultsStore, spec_content_hash


def _spec(**overrides) -> ExperimentSpec:
    settings = dict(
        experiment="campaign", cell_id="total_nodes=8",
        run_id="campaign/total_nodes=8", seed=1, backend="netsim",
        params=(("liar_fraction", 0.0), ("total_nodes", 8)),
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


#: A 2-cell campaign (liar fraction 0 and 0.25 at 8 nodes, one short
#: detection cycle); every cell stores one row per system.
_AXES = {"total_nodes": (8,), "liar_fraction": (0.0, 0.25)}
_PARAMS = {"warmup": 20.0, "cycles": 1}


def _campaign(**kwargs):
    kwargs.setdefault("axes", _AXES)
    kwargs.setdefault("params", _PARAMS)
    return run_experiment("campaign", **kwargs)


# ------------------------------------------------------------- content hash
def test_spec_content_hash_is_stable_and_field_sensitive():
    spec = _spec()
    assert spec_content_hash(spec) == spec_content_hash(_spec())
    assert spec.content_hash() == spec_content_hash(spec)
    for change in (dict(seed=2), dict(params=(("total_nodes", 16),)),
                   dict(backend="oracle"), dict(experiment="figure1"),
                   dict(params=(("liar_fraction", 0.0), ("total_nodes", 8),
                                ("warmup", 30.0)))):
        assert spec_content_hash(_spec(**change)) != spec_content_hash(spec)


# -------------------------------------------------------------------- store
def test_store_roundtrip_and_streaming_order(tmp_path):
    path = str(tmp_path / "runs.sqlite")
    spec_b = _spec(run_id="b-cell")
    spec_a = _spec(run_id="a-cell", seed=2)
    with ResultsStore(path) as store:
        digest_b = store.record(spec_b, [{"run_id": "b-cell", "x": 1.5, "ok": True}])
        store.record(spec_a, [{"run_id": "a-cell", "x": None, "ok": False}])
        assert digest_b == spec_content_hash(spec_b)
        assert digest_b in store
        assert "missing" not in store
        assert len(store) == 2
        assert store.get_row(digest_b) == [{"run_id": "b-cell", "x": 1.5, "ok": True}]
        assert store.get_row("missing") is None
        # Streaming is ordered by run_id and filterable per run.
        assert [r["run_id"] for r in store.iter_rows()] == ["a-cell", "b-cell"]
        assert [r["run_id"] for r in store.iter_rows([digest_b])] == ["b-cell"]

    # Reopening sees the committed rows (durability across connections).
    with ResultsStore(path) as store:
        assert len(store) == 2
        store.discard(digest_b)
        assert len(store) == 1


def test_store_rejects_unknown_schema_version(tmp_path):
    path = str(tmp_path / "runs.sqlite")
    with ResultsStore(path) as store:
        store._connection.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
    with pytest.raises(ValueError):
        ResultsStore(path)


def test_record_replaces_existing_row(tmp_path):
    with ResultsStore(str(tmp_path / "runs.sqlite")) as store:
        spec = _spec()
        digest = store.record(spec, [{"run_id": spec.run_id, "v": 1}])
        store.record(spec, [{"run_id": spec.run_id, "v": 2}])
        assert len(store) == 1
        assert store.get_row(digest) == [{"run_id": spec.run_id, "v": 2}]


def test_completed_hashes_chunks_large_sets(tmp_path):
    with ResultsStore(str(tmp_path / "runs.sqlite")) as store:
        specs = [_spec(run_id=f"cell-{i:04d}", seed=i) for i in range(7)]
        digests = [store.record(s, [{"run_id": s.run_id}]) for s in specs]
        probe = digests + [f"absent-{i}" for i in range(600)]
        assert store.completed_hashes(probe) == set(digests)


# ------------------------------------------------------------------- resume
def test_interrupted_campaign_resumes_and_report_is_byte_identical(tmp_path):
    total = 2
    reference = _campaign().format_report()  # uninterrupted, in-memory

    path = str(tmp_path / "campaign.sqlite")
    with ResultsStore(path) as store:
        # "Kill" the campaign after 1 of 2 cells.
        partial = _campaign(store=store, max_new_runs=1)
        assert len(partial.executed_run_ids) == 1
        assert partial.skipped_run_ids == []
        assert len(store) == 1

    # Reopen the store: only the remaining cell is executed.
    with ResultsStore(path) as store:
        resumed = _campaign(store=store)
        assert len(resumed.skipped_run_ids) == 1
        assert len(resumed.executed_run_ids) == total - 1
        assert set(resumed.skipped_run_ids) | set(resumed.executed_run_ids) == {
            spec.run_id for spec in resumed.specs
        }
        assert resumed.format_report() == reference

    # A third invocation is a pure replay: nothing executes, same report.
    with ResultsStore(path) as store:
        replay = _campaign(store=store)
        assert replay.executed_run_ids == []
        assert len(replay.skipped_run_ids) == total
        assert replay.format_report() == reference


def test_resume_false_re_executes_stored_cells(tmp_path):
    axes = {"total_nodes": (8,), "liar_fraction": (0.0,)}
    with ResultsStore(str(tmp_path / "campaign.sqlite")) as store:
        first = _campaign(axes=axes, store=store)
        assert len(first.executed_run_ids) == 1
        again = _campaign(axes=axes, store=store, resume=False)
        assert len(again.executed_run_ids) == 1
        assert again.skipped_run_ids == []


def test_store_backed_campaign_matches_parallel_and_serial(tmp_path):
    serial = _campaign().format_report()
    with ResultsStore(str(tmp_path / "campaign.sqlite")) as store:
        parallel = _campaign(workers=2, store=store)
        assert parallel.format_report() == serial


# ------------------------------------------------------------------ systems
def test_one_grid_compares_detector_against_all_baselines():
    result = _campaign(axes={"total_nodes": (8,), "liar_fraction": (0.25,)},
                       params={"warmup": 25.0, "cycles": 2})
    rows = result.rows()
    assert len(rows) == len(SYSTEMS)
    assert [row["system"] for row in rows] == list(SYSTEMS)
    # Every system judged the identical simulation.
    assert len({row["seed"] for row in rows}) == 1
    assert len({row["frames_sent"] for row in rows}) == 1
    comparison = aggregate_rows(rows, ("system",), ("flagged", "attacker_trust"))
    assert [row["system"] for row in comparison] == sorted(SYSTEMS)
    report = result.format_report()
    for system in SYSTEMS:
        assert system in report


# ---------------------------------------------------------------------- CLI
def _cli_args(db_path: str) -> list:
    return ["--axis", "total_nodes=8", "--axis", "liar_fraction=0.0",
            "--param", "warmup=20", "--param", "cycles=1", "--db", db_path]


def test_cli_db_resume_and_report_subcommand(tmp_path, capsys):
    db_path = str(tmp_path / "campaign.sqlite")
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    out_c = tmp_path / "c.txt"

    assert main(["run", "campaign", *_cli_args(db_path), "--output", str(out_a)]) == 0
    # Resumed invocation executes nothing but reports identically.
    assert main(["run", "campaign", *_cli_args(db_path), "--resume",
                 "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    # The report subcommand re-aggregates the store without re-running.
    assert main(["report", "--experiment", "campaign", *_cli_args(db_path),
                 "--output", str(out_c)]) == 0
    assert out_c.read_bytes() == out_a.read_bytes()
    capsys.readouterr()  # swallow the printed reports


def test_cli_resume_requires_db(capsys):
    with pytest.raises(SystemExit):
        main(["run", "campaign", "--resume"])
    capsys.readouterr()


def test_cli_report_subcommand_missing_db(tmp_path, capsys):
    missing = str(tmp_path / "nope" / "x.sqlite")
    assert main(["report", "--db", missing]) == 1
    # A mistyped path must not be silently created as an empty store.
    missing_file = tmp_path / "typo.sqlite"
    assert main(["report", "--db", str(missing_file)]) == 1
    assert not missing_file.exists()
    capsys.readouterr()


def test_cli_run_with_unopenable_db_errors_cleanly(tmp_path, capsys):
    bad = str(tmp_path / "no_such_dir" / "c.sqlite")
    assert main(["run", "campaign", "--param", "cycles=1", "--db", bad]) == 1
    assert "cannot open results store" in capsys.readouterr().err


# --------------------------------------------------------- hostile payloads
def test_nan_and_infinite_metrics_round_trip(tmp_path):
    """NaN/±inf metric values survive storage and resume intact.

    Aggregations can legitimately produce non-finite floats (empty-cell
    means, saturating ratios); the store must neither crash nor silently
    rewrite them, and the stored bytes must be identical after reopening —
    that is what keeps resumed reports byte-identical to live ones.
    """
    import json
    import math

    path = str(tmp_path / "runs.sqlite")
    row = {"run_id": "hostile-nan", "nan": float("nan"),
           "pos": float("inf"), "neg": float("-inf"), "finite": 0.1 + 0.2}
    with ResultsStore(path) as store:
        spec = _spec(run_id="hostile-nan")
        digest = store.record(spec, [row])
        raw_before = store._connection.execute(
            "SELECT row_json FROM runs WHERE spec_hash = ?", (digest,)
        ).fetchone()[0]

    with ResultsStore(path) as store:  # resume: fresh connection
        raw_after = store._connection.execute(
            "SELECT row_json FROM runs WHERE spec_hash = ?", (digest,)
        ).fetchone()[0]
        assert raw_after == raw_before  # byte-identical across resume
        (loaded,) = store.get_row(digest)
        assert math.isnan(loaded["nan"])
        assert loaded["pos"] == float("inf")
        assert loaded["neg"] == float("-inf")
        assert loaded["finite"] == 0.1 + 0.2  # repr-exact, not re-rounded
        streamed = list(store.iter_rows([digest]))
        assert json.dumps(streamed[0]) == json.dumps(loaded)


def test_unicode_and_param_heavy_specs_round_trip(tmp_path):
    """Unicode ids/values and very wide parameter tuples store losslessly."""
    from repro.experiments.engine import ExperimentSpec

    heavy_params = tuple(
        (f"param_{i:03d}", value)
        for i, value in enumerate(
            [0.1 * i for i in range(120)]
            + ["véhicule-nœud", "攻撃者", "liar:нет", None, True, -1]
        )
    )
    spec = ExperimentSpec(
        experiment="hostile-experiment-☃",
        cell_id="liar_ratio=26.3%-μ=0.5",
        run_id="hostile-☃/liar_ratio=26.3%",
        seed=7,
        backend="netsim",
        params=heavy_params,
    )
    row = {"run_id": spec.run_id, "note": "tröst ≤ 0.4 — 信頼", "ok": True}

    path = str(tmp_path / "runs.sqlite")
    with ResultsStore(path) as store:
        digest = store.record(spec, [row])
        assert digest == spec.content_hash()

    with ResultsStore(path) as store:
        assert store.get_row(digest) == [row]
        assert list(store.iter_rows([digest])) == [row]
        import json

        stored_spec = json.loads(store._connection.execute(
            "SELECT spec_json FROM runs WHERE spec_hash = ?", (digest,)
        ).fetchone()[0])
        assert stored_spec["params"] == [list(p) for p in heavy_params]
        assert stored_spec["run_id"] == spec.run_id


def test_multi_row_cells_flatten_identically_after_resume(tmp_path):
    """A multi-row cell streams the same flat rows before and after
    reopening, interleaved correctly with single-row cells."""
    import json

    multi = [{"run_id": "multi", "node": f"n{i:02d}", "trust": i / 7.0}
             for i in range(7)]
    single = [{"run_id": "single", "x": 1}]
    path = str(tmp_path / "runs.sqlite")
    with ResultsStore(path) as store:
        digest_multi = store.record(_spec(run_id="multi", seed=3), multi)
        digest_single = store.record(_spec(run_id="single", seed=4), single)
        live = list(store.iter_rows([digest_multi, digest_single]))

    with ResultsStore(path) as store:
        resumed = list(store.iter_rows([digest_multi, digest_single]))
        assert json.dumps(resumed) == json.dumps(live)
        assert resumed == multi + single
        assert store.get_row(digest_multi) == multi


# ------------------------------------------------------------ stored fields
def test_stored_spec_json_round_trips(tmp_path):
    with ResultsStore(str(tmp_path / "runs.sqlite")) as store:
        spec = _spec(backend="oracle")
        digest = store.record(spec, [{"run_id": spec.run_id}])
        import json

        stored = store._connection.execute(
            "SELECT spec_json FROM runs WHERE spec_hash = ?", (digest,)
        ).fetchone()
        assert json.loads(stored[0]) == json.loads(json.dumps(dataclasses.asdict(spec)))


# ------------------------------------------------- fabric-facing store APIs
def test_count_rows_flattens_multi_row_cells(tmp_path):
    with ResultsStore(str(tmp_path / "runs.sqlite")) as store:
        assert store.count_rows() == 0
        store.record(_spec(run_id="single"), [{"run_id": "single"}])
        multi = [{"run_id": "multi", "node": i} for i in range(5)]
        store.record(_spec(run_id="multi", seed=2), multi)
        assert store.count_rows() == 6
        assert len(store) == 2


def test_has_cell_mirrors_containment(tmp_path):
    with ResultsStore(str(tmp_path / "runs.sqlite")) as store:
        digest = store.record(_spec(), [{"run_id": "x"}])
        assert store.has_cell(digest)
        assert not store.has_cell("absent")


def test_iter_records_streams_raw_stored_text(tmp_path):
    import json

    with ResultsStore(str(tmp_path / "runs.sqlite")) as store:
        spec = _spec(run_id="raw")
        digest = store.record(spec, [{"run_id": "raw", "x": float("inf")}])
        records = list(store.iter_records())
        assert len(records) == 1
        record = records[0]
        assert record.spec_hash == digest
        assert record.run_id == "raw"
        assert record.row_json == store.raw_row_json(digest)
        assert json.loads(record.spec_json)["run_id"] == "raw"
