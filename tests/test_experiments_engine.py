"""Tests for the unified experiment engine (spec / registry / runner).

The golden-parity block asserts that every migrated experiment produces
row-identical output to its legacy driver — the guarantee the multi-layer
migration rests on: same scenario construction, same seeds, same row
assembly, merely executed through the shared runtime.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablation import run_ablation
from repro.experiments.confidence_sweep import run_confidence_sweep
from repro.experiments.engine import (
    ExperimentDefinition,
    ExperimentSpec,
    execute_cell,
    get_experiment,
    list_experiments,
    register,
    run_experiment,
)
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.gravity_ablation import run_gravity_ablation
from repro.experiments.mobility import run_mobility_study
from repro.experiments.results import ResultsStore, spec_content_hash
from repro.seeding import stable_seed


# ----------------------------------------------------------------- registry
def test_all_seven_legacy_experiments_are_registered():
    names = {definition.name for definition in list_experiments()}
    assert {"figure1", "figure2", "figure3", "ablation", "confidence_sweep",
            "gravity_ablation", "mobility"} <= names


def test_get_experiment_unknown_name_is_a_clear_error():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("no_such_experiment")


def test_definition_validates_backend_and_seed_mode():
    with pytest.raises(ValueError):
        ExperimentDefinition(name="x", description="", rows_from_result=None,
                             default_backend="quantum")
    with pytest.raises(ValueError):
        ExperimentDefinition(name="x", description="", rows_from_result=None,
                             seed_mode="random")


# ---------------------------------------------------------------- expansion
def test_expand_cross_product_order_and_ids():
    specs = get_experiment("confidence_sweep").expand()
    assert len(specs) == 9
    assert [spec.cell_id for spec in specs][:3] == [
        "confidence_level=0.9-gamma=0.4",
        "confidence_level=0.9-gamma=0.6",
        "confidence_level=0.9-gamma=0.8",
    ]
    assert all(spec.run_id == f"confidence_sweep/{spec.cell_id}" for spec in specs)
    assert specs == get_experiment("confidence_sweep").expand()  # deterministic


def test_expand_axis_and_param_overrides():
    definition = get_experiment("figure3")
    specs = definition.expand(axes={"liar_ratio": ("6.7%",)},
                              params={"rounds": 5})
    assert len(specs) == 1
    assert specs[0].param("rounds") == 5
    # A fixed parameter can be promoted to an axis.
    single = get_experiment("figure1")
    swept = single.expand(axes={"liar_count": (2, 4, 6)})
    assert [spec.param("liar_count") for spec in swept] == [2, 4, 6]


def test_expand_rejects_unknown_override_names():
    definition = get_experiment("figure3")
    with pytest.raises(ValueError, match="unknown parameter 'cycels'"):
        definition.expand(params={"cycels": 4})  # typo of "cycles"
    with pytest.raises(ValueError, match="unknown axis"):
        definition.expand(axes={"liar_ration": ("6.7%",)})


def test_expand_rejects_param_override_shadowed_by_an_axis():
    with pytest.raises(ValueError, match="swept axis"):
        get_experiment("figure3").expand(params={"liar_ratio": "50%"})


def test_shared_vs_per_cell_seed_modes():
    shared = get_experiment("confidence_sweep").expand()
    assert len({spec.seed for spec in shared}) == 1  # legacy drivers share

    per_cell = ExperimentDefinition(
        name="__per_cell__", description="", rows_from_result=lambda s, r: [],
        axes={"x": (1, 2, 3)}, seed_mode="per-cell", base_seed=7,
    )
    specs = per_cell.expand()
    assert len({spec.seed for spec in specs}) == 3
    assert specs[0].seed == stable_seed(7, "__per_cell__/x=1")


def test_spec_content_hash_covers_backend_seed_and_params():
    base = get_experiment("figure1").expand()[0]
    assert base.content_hash() == spec_content_hash(base)
    variants = (
        get_experiment("figure1").expand(backend="netsim")[0],
        get_experiment("figure1").expand(base_seed=99)[0],
        get_experiment("figure1").expand(params={"rounds": 9})[0],
    )
    hashes = {base.content_hash()} | {spec.content_hash() for spec in variants}
    assert len(hashes) == 4


# ------------------------------------------------------------ golden parity
def test_parity_figure1_rows_identical_to_legacy_driver():
    assert run_experiment("figure1").rows() == run_figure1().rows()


def test_parity_figure2_rows_identical_to_legacy_driver():
    assert run_experiment("figure2").rows() == run_figure2().rows()


def test_parity_figure3_rows_identical_to_legacy_driver():
    assert run_experiment("figure3").rows() == run_figure3().rows()


def test_parity_ablation_rows_identical_to_legacy_driver():
    assert run_experiment("ablation").rows() == run_ablation().as_rows()


def test_parity_confidence_sweep_rows_identical_to_legacy_driver():
    assert run_experiment("confidence_sweep").rows() == run_confidence_sweep().as_rows()


def test_parity_gravity_ablation_rows_identical_to_legacy_driver():
    assert run_experiment("gravity_ablation").rows() == run_gravity_ablation().as_rows()


def test_parity_mobility_rows_identical_to_legacy_driver():
    # Reduced configuration (the full paper sweep is a bench); both paths run
    # the identical netsim scenario.
    legacy = run_mobility_study(speeds=(0.0, 8.0), node_count=12, liar_count=2,
                                cycles=4, seed=23)
    engine = run_experiment("mobility", axes={"max_speed": (0.0, 8.0)},
                            params={"total_nodes": 12, "liar_count": 2,
                                    "cycles": 4})
    assert engine.rows() == legacy.as_rows()


# ----------------------------------------------------- runtime + parallelism
def test_parallel_run_matches_serial_report():
    serial = run_experiment("confidence_sweep")
    parallel = run_experiment("confidence_sweep", workers=2)
    assert parallel.format_report() == serial.format_report()
    assert parallel.rows() == serial.rows()


def test_rows_stream_in_expansion_order_not_completion_order():
    result = run_experiment("figure3", workers=2)
    assert [row["liar_ratio"] for row in result.rows()] == ["6.7%", "26.3%", "43.2%"]


def test_interrupted_run_resumes_and_report_is_byte_identical(tmp_path):
    reference = run_experiment("confidence_sweep").format_report()

    path = str(tmp_path / "sweep.sqlite")
    with ResultsStore(path) as store:
        # "Kill" the sweep after 4 of 9 cells.
        partial = run_experiment("confidence_sweep", store=store, max_new_runs=4)
        assert len(partial.executed_run_ids) == 4
        assert partial.skipped_run_ids == []
        assert len(store) == 4

    # Resume: only the 5 missing cells execute; the report matches the
    # uninterrupted run byte for byte.
    with ResultsStore(path) as store:
        resumed = run_experiment("confidence_sweep", store=store, workers=2)
        assert len(resumed.skipped_run_ids) == 4
        assert len(resumed.executed_run_ids) == 5
        assert resumed.format_report() == reference

    # A pure replay executes nothing and still reports identically.
    with ResultsStore(path) as store:
        replay = run_experiment("confidence_sweep", store=store)
        assert replay.executed_run_ids == []
        assert replay.format_report() == reference


def test_multi_row_cells_round_trip_through_the_store(tmp_path):
    reference = run_experiment("figure1")
    with ResultsStore(str(tmp_path / "f1.sqlite")) as store:
        run_experiment("figure1", store=store)
        stored = run_experiment("figure1", store=store)  # replay from store
        assert stored.executed_run_ids == []
        assert stored.rows() == reference.rows()
        # The flattened stream matches too (one row per node).
        assert list(store.iter_rows()) == reference.rows()


def test_max_new_runs_zero_reports_without_executing(tmp_path):
    with ResultsStore(str(tmp_path / "f3.sqlite")) as store:
        run_experiment("figure3", store=store)
        result = run_experiment("figure3", store=store, max_new_runs=0)
        assert result.executed_run_ids == []
        assert len(result.rows()) == 3


# ---------------------------------------------------------------- backends
def test_every_figure_also_runs_full_stack():
    result = run_experiment(
        "figure3",
        backend="netsim",
        axes={"liar_ratio": ("26.3%",)},
        params={"total_nodes": 8, "liar_count": 2, "cycles": 2,
                "warmup": 25.0, "attack_start": 20.0},
    )
    rows = result.rows()
    assert len(rows) == 1
    assert rows[0]["liar_ratio"] == "26.3%"
    assert rows[0]["responders"] == 6


def test_backend_choice_is_rejected_when_unknown():
    with pytest.raises(ValueError):
        run_experiment("figure1", backend="quantum")


def test_execute_cell_resolves_registry_in_process():
    spec = get_experiment("figure3").expand(axes={"liar_ratio": ("6.7%",)},
                                            params={"rounds": 3})[0]
    rows = execute_cell(spec)
    assert rows[0]["liar_count"] == 1


# -------------------------------------------------------------- campaign axis
def test_campaign_scenario_axes_apply_to_figures():
    # The campaign's liar-fraction axis, promoted onto figure1.
    result = run_experiment("figure1", axes={"liar_fraction": (0.0, 0.25)},
                            params={"rounds": 5, "liar_count": 0})
    assert result.cells() == 2
    rows = result.rows()
    assert len(rows) == 2 * 15  # one row per node per cell


def test_register_replaces_existing_definition():
    definition = ExperimentDefinition(
        name="__replaceme__", description="first", rows_from_result=lambda s, r: [])
    register(definition)
    replacement = ExperimentDefinition(
        name="__replaceme__", description="second", rows_from_result=lambda s, r: [])
    register(replacement)
    assert get_experiment("__replaceme__").description == "second"


# ----------------------------------------------------- graceful interruption
def _interruptible_execute(payload):
    """Module-level (picklable) worker: sleep, then succeed or interrupt."""
    import time as _time

    name, duration = payload
    _time.sleep(duration)
    if name == "boom":
        raise KeyboardInterrupt
    return name


def test_keyboard_interrupt_commits_completed_and_cancels_pending():
    """Ctrl-C mid-fan-out must keep finished cells and drop queued ones.

    Four cells on two workers: ``fast`` completes before ``boom`` raises
    KeyboardInterrupt (standing in for Ctrl-C hitting a worker); ``slow2``
    is still queued and must be cancelled rather than executed.  The
    interrupt itself must propagate so the CLI can report the resume path.
    """
    import time as _time

    from repro.experiments.engine import execute_pending_cells

    committed = []
    pending = [(("fast", 0.0), "h-fast"), (("boom", 0.5), "h-boom"),
               (("slow1", 1.5), "h-slow1"), (("slow2", 1.5), "h-slow2")]

    start = _time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        execute_pending_cells(pending, _interruptible_execute,
                              lambda payload, digest, result: committed.append(digest),
                              workers=2)
    elapsed = _time.perf_counter() - start
    assert "h-fast" in committed
    assert "h-boom" not in committed
    assert "h-slow2" not in committed  # cancelled, never executed
    # Had both slow cells run to completion serially the loop would take
    # >3s; cancellation keeps the exit prompt.
    assert elapsed < 10.0


def test_serial_interrupt_keeps_earlier_commits():
    from repro.experiments.engine import execute_pending_cells

    committed = []
    with pytest.raises(KeyboardInterrupt):
        execute_pending_cells(
            [(("fast", 0.0), "h1"), (("boom", 0.0), "h2"), (("late", 0.0), "h3")],
            _interruptible_execute,
            lambda payload, digest, result: committed.append(digest),
            workers=1)
    assert committed == ["h1"]


def _marking_execute(payload):
    """Module-level (picklable) worker: mark the cell as run, then sleep and
    succeed or raise."""
    import pathlib
    import time as _time

    marker_dir, name, duration = payload
    pathlib.Path(marker_dir, name).touch()
    _time.sleep(duration)
    if name == "fail":
        raise ValueError("cell failed")
    return name


def test_failing_cell_commits_completed_and_cancels_pending(tmp_path):
    """A cell that raises must not leave the queued cells to run unseen.

    Twelve cells on two workers: ``fast`` completes, ``fail`` raises.  The
    exception propagates, the finished cell is committed, and the cells
    still queued are cancelled instead of running to completion with their
    results discarded (which is what a store-backed resume would then have
    to execute again).
    """
    from repro.experiments.engine import execute_pending_cells

    committed = []
    pending = [((str(tmp_path), "fast", 0.0), "h-fast"),
               ((str(tmp_path), "fail", 0.3), "h-fail")]
    pending += [((str(tmp_path), f"slow{i}", 0.5), f"h-slow{i}")
                for i in range(10)]
    with pytest.raises(ValueError):
        execute_pending_cells(pending, _marking_execute,
                              lambda payload, digest, result: committed.append(digest),
                              workers=2)
    assert committed[0] == "h-fast"
    assert "h-fail" not in committed
    ran = {path.name for path in tmp_path.iterdir()}
    # At most the cells already handed to the two workers ran; the rest
    # were cancelled.
    assert len(ran) <= 6
    assert len(ran) < len(pending)


# -------------------------------------------------------- fabric-facing API
def test_expand_experiment_matches_run_expansion():
    from repro.experiments.engine import expand_experiment

    definition, specs, hashes = expand_experiment(
        "confidence_sweep", params={"rounds": 5})
    assert definition.name == "confidence_sweep"
    assert len(specs) == len(hashes) == 9
    assert hashes == [spec.content_hash() for spec in specs]
    assert specs == get_experiment("confidence_sweep").expand(
        params={"rounds": 5})
