"""Tests for the ``campaign`` experiment and its determinism guarantees."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.__main__ import build_run_parser, main
from repro.experiments.backends import scenario_config_from_params
from repro.experiments.campaign import SYSTEMS
from repro.experiments.config import ScenarioConfig
from repro.experiments.engine import execute_cell, get_experiment, run_experiment
from repro.experiments.report import aggregate_rows
from repro.experiments.rounds import ExperimentResult, RoundRecord
from repro.seeding import stable_digest, stable_seed

#: The campaign's metric columns (every other column names the scenario).
METRICS = ("investigated", "cycles", "flagged", "final_detect", "attacker_trust",
           "liar_trust", "honest_trust", "frames_sent", "frames_delivered", "events")

#: Reduced cells for the runtime tests: 8 nodes, one short detection cycle.
TINY = {"warmup": 20.0, "cycles": 1}
TINY_AXES = {"total_nodes": (8,), "liar_fraction": (0.0, 0.25)}


def _cell(**axes):
    """The single campaign spec with these axis values (defaults elsewhere)."""
    (spec,) = get_experiment("campaign").expand(
        axes={name: (value,) for name, value in axes.items()})
    return spec


# ------------------------------------------------------------------ seeding
def test_stable_digest_is_process_independent_known_values():
    # CRC32 values are fixed by the algorithm, not by PYTHONHASHSEED.
    assert stable_digest("n00") == 1150761319
    assert stable_digest("n07") == 3673402564


def test_stable_seed_distinct_per_label_and_repeatable():
    seeds = {stable_seed(7, f"cell-{i}") for i in range(50)}
    assert len(seeds) == 50
    assert stable_seed(7, "cell-3") == stable_seed(7, "cell-3")
    assert stable_seed(7, "cell-3") != stable_seed(8, "cell-3")


# --------------------------------------------------------------------- grid
def test_grid_expands_full_cross_product_with_stable_seeds():
    definition = get_experiment("campaign")
    axes = {"total_nodes": (8, 16), "liar_fraction": (0.0, 0.25),
            "loss_probability": (0.0, 0.2), "max_speed": (0.0, 5.0)}
    specs = definition.expand(axes=axes)
    assert len(specs) == 16
    assert len({spec.run_id for spec in specs}) == 16
    assert specs == definition.expand(axes=axes)  # expansion is deterministic
    for spec in specs:
        assert spec.backend == "netsim"
        assert spec.seed == stable_seed(7, f"campaign/{spec.cell_id}")


def test_grid_repetitions_get_distinct_seeds():
    specs = get_experiment("campaign").expand(axes={"repetition": (0, 1, 2)})
    assert len(specs) == 3
    assert len({spec.seed for spec in specs}) == 3


def test_grid_system_axis_multiplies_cells_and_shares_seeds():
    # Systems are rows of one cell, not an axis: one scenario, one seed, one
    # simulation, and a row per system.
    (spec,) = get_experiment("campaign").expand(
        axes={"total_nodes": (8,), "liar_fraction": (0.25,)}, params=TINY)
    rows = execute_cell(spec)
    assert len(rows) == len(SYSTEMS)
    assert sorted(row["system"] for row in rows) == sorted(SYSTEMS)
    assert {row["seed"] for row in rows} == {spec.seed}


def test_grid_validates_axes():
    with pytest.raises(ValueError):
        get_experiment("campaign").expand(axes={"systems": ("detector",)})
    for bad in (dict(liar_fraction=1.5), dict(loss_model="gaussian"),
                dict(attack_variant="no_such_variant")):
        with pytest.raises(ValueError):
            execute_cell(_cell(**bad))


def test_spec_liar_count_scales_with_responders():
    spec = _cell(total_nodes=10, liar_fraction=0.25)
    config = scenario_config_from_params(spec.params_dict(), spec.seed)
    assert config.effective_liar_count() == 2  # 25 % of 8 responders


# ---------------------------------------------------------------- execution
def test_execute_spec_produces_metrics():
    spec = get_experiment("campaign").expand(axes=TINY_AXES, params=TINY)[0]
    rows = execute_cell(spec)
    assert len(rows) == len(SYSTEMS)
    assert rows[0]["frames_sent"] > 0
    assert rows[0]["events"] > 0
    assert rows[0]["nodes"] == 8
    assert rows[0]["seed"] == spec.seed


def test_run_campaign_serial_is_deterministic():
    first = run_experiment("campaign", axes=TINY_AXES, params=TINY)
    second = run_experiment("campaign", axes=TINY_AXES, params=TINY)
    assert first.format_report() == second.format_report()
    assert first.rows() == second.rows()


def test_run_campaign_parallel_matches_serial():
    serial = run_experiment("campaign", axes=TINY_AXES, params=TINY)
    parallel = run_experiment("campaign", axes=TINY_AXES, params=TINY, workers=2)
    assert parallel.format_report() == serial.format_report()


def test_campaign_aggregate_groups_rows():
    rows = run_experiment("campaign", axes=TINY_AXES, params=TINY).rows()
    aggregate = aggregate_rows(rows, ("system", "liar_fraction"), METRICS)
    assert len(aggregate) == 2 * len(SYSTEMS)
    assert all(row["runs"] == 1 for row in aggregate)


def test_campaign_metrics_match_golden():
    """Every metric equals the retired campaign runner's, as JSON text.

    ``tests/golden/campaign_parity.json`` was generated at commit 8ae4805,
    the last one with the stand-alone runner: for each cell in the file, its
    ``repro.experiments.campaign.execute_spec`` ran a ``CampaignSpec`` per
    system with the same node count, liar fraction, loss model and
    probability, speed, attack variant and repetition, the runner's
    defaults otherwise, and ``seed`` set to this experiment's per-cell seed
    for the cell; the file holds the ``METRICS`` columns of each
    ``as_row()`` (``json.dumps(..., indent=1)``).
    """
    golden = json.loads((Path(__file__).parent / "golden"
                         / "campaign_parity.json").read_text())
    assert len(golden["cells"]) >= 4
    for cell in golden["cells"]:
        spec = _cell(**cell["axes"])
        assert spec.seed == cell["seed"]
        rows = [{"system": row["system"], **{m: row[m] for m in METRICS}}
                for row in execute_cell(spec)]
        assert json.dumps(rows) == json.dumps(cell["rows"]), cell["axes"]


# ---------------------------------------------------------------------- CLI
def test_cli_two_invocations_byte_identical(tmp_path, capsys):
    argv = ["run", "campaign", "--axis", "total_nodes=8",
            "--axis", "liar_fraction=0.0,0.25",
            "--param", "warmup=20", "--param", "cycles=1"]
    outputs = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        assert main(argv + ["--output", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"Campaign" in outputs[0]
    capsys.readouterr()  # swallow the printed reports


def test_cli_parser_defaults():
    args = build_run_parser().parse_args(["campaign"])
    assert args.workers == 1
    assert args.db is None and not args.resume
    (spec,) = get_experiment(args.experiment).expand()
    params = spec.params_dict()
    assert params["total_nodes"] == 16
    assert params["liar_fraction"] == 0.25
    assert (params["loss_model"], params["loss_probability"]) == ("bernoulli", 0.0)
    assert params["max_speed"] == 0.0
    assert params["attack_variant"] == "false_existing_link"
    assert params["cycles"] == 5


def test_as_row_keeps_raw_precision():
    # Aggregates must be computed from raw per-run metrics; rounding happens
    # only in the formatter.  (A pre-rounded 4-digit row biases group means.)
    spec = _cell(total_nodes=8)
    result = ExperimentResult(
        config=ScenarioConfig(total_nodes=8, liar_count=0),
        investigator="v", attacker="a", liars=set(), honest_responders={"h"},
        stats={"frames_sent": 1, "frames_delivered": 1, "events_processed": 1},
    )
    result.rounds.append(RoundRecord(
        round_index=0, attack_active=True, detect_value=-0.123456789,
        outcome=None, margin=0.1, answers={"h": -1.0},
        trust_snapshot={"a": 0.987654321}))
    rows = get_experiment("campaign").rows_from_result(spec, result)
    assert rows[0]["final_detect"] == -0.123456789
    assert rows[0]["attacker_trust"] == 0.987654321
    assert rows[0]["honest_trust"] == 0.4  # absent from the snapshot: default


# ---------------------------------------------------------------- reporting
def test_aggregate_rows_means_and_sorting():
    rows = [
        {"group": "b", "value": 2.0, "flag": True},
        {"group": "a", "value": 1.0, "flag": False},
        {"group": "b", "value": 4.0, "flag": True},
        {"group": "a", "value": None, "flag": False},
    ]
    aggregated = aggregate_rows(rows, ("group",), ("value",))
    assert [row["group"] for row in aggregated] == ["a", "b"]
    assert aggregated[0]["runs"] == 2
    assert aggregated[0]["value"] == 1.0  # None skipped
    assert aggregated[1]["value"] == 3.0
