"""Tests for the unified ``python -m repro.experiments`` CLI."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main
from repro.experiments._cli import parse_axis, parse_param, parse_value


def test_value_parsing_types():
    assert parse_value("3") == 3
    assert parse_value("0.25") == 0.25
    assert parse_value("true") is True
    assert parse_value("None") is None
    assert parse_value("6.7%") == "6.7%"


def test_axis_and_param_parsing():
    assert parse_axis("gamma=0.4,0.6") == ("gamma", (0.4, 0.6))
    assert parse_param("rounds=5") == ("rounds", 5)
    with pytest.raises(Exception):
        parse_axis("gamma")
    with pytest.raises(Exception):
        parse_param("rounds")


def test_cli_list_names_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("figure1", "figure2", "figure3", "ablation",
                 "confidence_sweep", "gravity_ablation", "mobility"):
        assert name in out


def test_cli_usage_and_unknown_command(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 2
    assert main(["campaign"]) == 2  # the campaign runs as `run campaign`
    capsys.readouterr()


def test_cli_campaign_subcommand_forwards(tmp_path, capsys):
    # The campaign is reached through `run campaign`, like every experiment.
    out = tmp_path / "campaign.txt"
    assert main(["run", "campaign", "--axis", "total_nodes=8",
                 "--param", "cycles=1", "--param", "warmup=20",
                 "--output", str(out)]) == 0
    text = out.read_text()
    assert "Campaign" in text
    for system in ("detector", "watchdog", "beta", "cap-olsr", "averaging"):
        assert system in text
    capsys.readouterr()


def test_cli_run_is_deterministic_across_invocations(tmp_path, capsys):
    argv = ["run", "figure3", "--param", "rounds=5"]
    outputs = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        assert main(argv + ["--output", str(path)]) == 0
    outputs = [(tmp_path / n).read_bytes() for n in ("a.txt", "b.txt")]
    assert outputs[0] == outputs[1]
    assert b"liar_ratio" in outputs[0]
    capsys.readouterr()


def test_cli_run_axis_override_and_workers(tmp_path, capsys):
    out = tmp_path / "sweep.txt"
    assert main(["run", "confidence_sweep", "--axis", "gamma=0.6",
                 "--param", "rounds=5", "--workers", "2",
                 "--output", str(out)]) == 0
    text = out.read_text()
    assert "0.6" in text
    assert text.count("\n") < 12  # 3 confidence levels x 1 gamma only
    capsys.readouterr()


def test_cli_run_db_resume_and_report_byte_identical(tmp_path, capsys):
    db = str(tmp_path / "sweep.sqlite")
    out_a, out_b, out_c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    argv = ["run", "confidence_sweep", "--param", "rounds=5", "--db", db]
    assert main(argv + ["--output", str(out_a)]) == 0
    assert main(argv + ["--resume", "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    # The report subcommand re-renders from the store, executing nothing.
    assert main(["report", "--db", db, "--experiment", "confidence_sweep",
                 "--param", "rounds=5", "--output", str(out_c)]) == 0
    assert out_c.read_bytes() == out_a.read_bytes()
    capsys.readouterr()


def test_cli_generic_report_tabulates_stored_rows(tmp_path, capsys):
    db = str(tmp_path / "f3.sqlite")
    assert main(["run", "figure3", "--param", "rounds=5", "--db", db]) == 0
    capsys.readouterr()
    assert main(["report", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "Stored rows" in out
    assert "6.7%" in out


def test_cli_run_resume_requires_db(capsys):
    with pytest.raises(SystemExit):
        main(["run", "figure1", "--resume"])
    capsys.readouterr()


def test_cli_run_unknown_experiment_errors(capsys):
    with pytest.raises(SystemExit):
        main(["run", "no_such_experiment"])
    capsys.readouterr()


def test_cli_run_typo_in_param_fails_fast(tmp_path, capsys):
    # A trust_ name is known only when it names a TrustParameters field.
    db = tmp_path / "typo.sqlite"
    for name in ("cycels", "trust_alpha_harmfull", "trust_decay_to_default"):
        assert main(["run", "figure3", "--param", f"{name}=4"]) == 2
        err = capsys.readouterr().err
        assert f"unknown parameter {name!r}" in err
        # The spec is checked before the store is opened: no empty file.
        assert main(["run", "figure3", "--param", f"{name}=4", "--db", str(db)]) == 2
        assert f"unknown parameter {name!r}" in capsys.readouterr().err
        assert not db.exists()
    assert main(["run", "confidence_sweep", "--axis", "gamm=0.5", "--db", str(db)]) == 2
    assert "unknown axis 'gamm'" in capsys.readouterr().err
    assert not db.exists()
    # A bad value is checked before the store is opened too, and a store
    # that existed before the command is left as it was.
    for flags in (["--param", "gamma=5"], ["--axis", "confidence_level=1.5"],
                  ["--param", "answer_loss_probability=2"]):
        assert main(["run", "figure3", *flags, "--db", str(db)]) == 2
        assert "must be in " in capsys.readouterr().err
        assert not db.exists()
    inverted = ["--param", "initial_trust_min=0.9", "--param", "initial_trust_max=0.1"]
    for flags in (inverted, [*inverted, "--db", str(db)]):
        assert main(["run", "figure3", *flags]) == 2
        assert ("initial_trust_min must be <= initial_trust_max"
                in capsys.readouterr().err)
        assert not db.exists()
    # So are the netsim-only parameters, each named in the error.
    netsim = ["run", "figure1", "--backend", "netsim",
              "--param", "total_nodes=8", "--param", "cycles=1"]
    for flag in ("radio_range=-5", "warmup=-5", "area_size=0", "cycle_length=0",
                 "max_speed=-3", "drop_probability=5", "attack_start=-1",
                 "radio_range=nan", "loss_probability=2", "cycles=0"):
        name = flag.partition("=")[0]
        for extra in ([], ["--db", str(db)]):
            assert main([*netsim, "--param", flag, *extra]) == 2, flag
            assert f"{name} must be " in capsys.readouterr().err
            assert not db.exists()
    # The named ones are checked against build_manet_scenario's tables,
    # and the error lists what they accept.
    for name, accepted in (("loss_model", "distance"), ("mobility_model", "rpgm"),
                           ("threat", "liar-clique"),
                           ("attack_variant", "omitted_neighbor")):
        for extra in ([], ["--db", str(db)]):
            assert main([*netsim, "--param", f"{name}=bogus", *extra]) == 2, name
            err = capsys.readouterr().err
            assert f"{name} must be one of " in err and "got 'bogus'" in err
            assert accepted in err
            assert not db.exists()
    assert main(["run", "figure3", "--param", "rounds=3", "--db", str(db)]) == 0
    capsys.readouterr()
    stored = db.read_bytes()
    assert main(["run", "figure3", "--param", "gamma=5", "--db", str(db)]) == 2
    assert "gamma must be in (0, 1], got 5" in capsys.readouterr().err
    assert db.read_bytes() == stored


@pytest.mark.parametrize("flags", [
    ["--max-new-runs", "-1"], ["--workers", "0"], ["--workers", "-2"],
], ids=["max-new-runs=-1", "workers=0", "workers=-2"])
def test_cli_run_rejects_a_negative_budget_and_workers_below_one(tmp_path, capsys, flags):
    # A negative budget would slice cells off the end of the grid, and a
    # worker count below one would silently run serially.
    db = tmp_path / "bad.sqlite"
    for extra in ([], ["--db", str(db)]):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "figure3", "--param", "rounds=3", *flags, *extra])
        assert exit_info.value.code == 2
        assert f"{flags[0]} must be " in capsys.readouterr().err
        assert not db.exists()


def test_run_experiment_rejects_a_negative_budget():
    from repro.experiments.engine import run_experiment

    with pytest.raises(ValueError, match="max_new_runs must be non-negative"):
        run_experiment("figure3", max_new_runs=-1, params={"rounds": 3})


def test_cli_run_rejects_a_negative_liar_count(tmp_path, capsys):
    # ``-1`` would slice every responder but one into the liar set.
    db = tmp_path / "liars.sqlite"
    oracle = ["run", "figure3", "--param", "rounds=3"]
    netsim = ["run", "figure1", "--backend", "netsim",
              "--param", "total_nodes=8", "--param", "cycles=1"]
    for argv in (oracle, netsim):
        for extra in ([], ["--db", str(db)]):
            assert main([*argv, "--param", "liar_count=-1", *extra]) == 2
            assert "liar_count must be non-negative, got -1" in capsys.readouterr().err
            assert not db.exists()


def test_build_manet_scenario_rejects_a_negative_liar_count():
    from repro.experiments.scenario import build_manet_scenario

    with pytest.raises(ValueError, match="liar_count must be non-negative"):
        build_manet_scenario(node_count=8, liar_count=-1)


@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_cli_attack_search_rejects_rounds_below_one(capsys, rounds):
    # A usage error, not a ValueError traceback from ScenarioConfig.
    with pytest.raises(SystemExit) as exit_info:
        main(["attack-search", "--rounds", rounds])
    assert exit_info.value.code == 2
    assert "--rounds must be positive" in capsys.readouterr().err


def test_cli_report_missing_db_is_an_error(tmp_path, capsys):
    missing = tmp_path / "nope.sqlite"
    assert main(["report", "--db", str(missing)]) == 1
    # A mistyped path must not be silently created as an empty store.
    assert not missing.exists()
    capsys.readouterr()


def test_cli_report_empty_store_exits_nonzero(tmp_path, capsys):
    from repro.experiments.results import ResultsStore

    db = str(tmp_path / "empty.sqlite")
    ResultsStore(db).close()
    assert main(["report", "--db", db]) == 1
    assert "holds no completed cells" in capsys.readouterr().err
    assert main(["report", "--db", db, "--experiment", "confidence_sweep"]) == 1
    capsys.readouterr()


def test_cli_run_profile_dumps_pstats_file(tmp_path, capsys):
    import pstats

    stats_file = tmp_path / "run.pstats"
    assert main(["run", "figure3", "--param", "rounds=3",
                 "--profile", str(stats_file)]) == 0
    err = capsys.readouterr().err
    assert "pstats data written" in err
    stats = pstats.Stats(str(stats_file))
    assert stats.total_calls > 0


def test_cli_run_profile_without_file_prints_summary(capsys, tmp_path):
    out = tmp_path / "report.txt"
    assert main(["run", "figure3", "--param", "rounds=3",
                 "--profile", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert "cumulative" in err  # pstats table header on stderr


def test_cli_validate_audits_each_sample_once(capsys):
    """One medium, one audit per sample: ``--medium`` is gone."""
    assert main(["validate", "--seeds", "1"]) == 0
    output = capsys.readouterr().out
    assert "invariant-checked:     1" in output
    with pytest.raises(SystemExit):
        main(["validate", "--seeds", "1", "--medium", "both"])
