"""Tests for the scenario-profile registry and the scenario fuzzer."""

from __future__ import annotations

import pytest

from repro.scenarios import (
    FuzzedScenario,
    ScenarioFuzzer,
    ScenarioProfile,
    apply_profile,
    get_profile,
    list_profiles,
    register_profile,
    reproducer_command,
)
from repro.scenarios.fuzzer import FUZZ_ROUNDS, NODE_COUNTS


# ------------------------------------------------------------------ registry
def test_builtin_profiles_cover_mobility_and_threat_kinds():
    profiles = {p.name: p for p in list_profiles()}
    # The acceptance floor: >= 2 mobility and >= 2 threat profiles.
    assert {"gauss-markov", "rpgm"} <= {
        p.name for p in list_profiles(kind="mobility")}
    assert {"onoff-grayhole", "liar-clique", "grayhole-liar"} <= {
        p.name for p in list_profiles(kind="threat")}
    assert "paper-static" in profiles
    # Threat compositions the oracle loop cannot express are invariant-only.
    for name in ("onoff-grayhole", "liar-clique", "grayhole-liar"):
        assert not profiles[name].differential
    for name in ("gauss-markov", "rpgm", "paper-static"):
        assert profiles[name].differential


def test_get_profile_unknown_name_lists_known_ones():
    with pytest.raises(KeyError, match="registered:"):
        get_profile("no-such-profile")


def test_profile_params_are_sorted_and_kind_is_checked():
    a = ScenarioProfile(name="t", description="", kind="threat",
                        params=(("b", 1), ("a", 2)))
    b = ScenarioProfile(name="t", description="", kind="threat",
                        params=(("a", 2), ("b", 1)))
    assert a.params == (("a", 2), ("b", 1))
    assert a == b
    with pytest.raises(ValueError):
        ScenarioProfile(name="x", description="", kind="weird")


def test_register_profile_makes_it_fuzzable_and_appliable():
    profile = register_profile(ScenarioProfile(
        name="test-only-profile", description="", kind="composite",
        params=(("mobility_model", "walk"), ("max_speed", 1.5)),
        differential=False,
    ))
    try:
        assert get_profile("test-only-profile") is profile
        merged = apply_profile({"profile": "test-only-profile", "rounds": 3})
        assert merged["mobility_model"] == "walk"
        assert merged["max_speed"] == 1.5
        assert merged["rounds"] == 3
        fuzzer = ScenarioFuzzer(0, profiles=["test-only-profile"])
        sample = fuzzer.sample(0)
        assert sample.profile == "test-only-profile"
        assert not sample.differential
    finally:
        from repro.scenarios import profiles as profiles_module

        del profiles_module._PROFILES["test-only-profile"]


# ------------------------------------------------------------- apply_profile
def test_apply_profile_cell_params_win_over_profile_params():
    merged = apply_profile({"profile": "gauss-markov", "max_speed": 9.0})
    assert merged["mobility_model"] == "gauss-markov"  # from the profile
    assert merged["max_speed"] == 9.0                  # the cell's own value wins


def test_apply_profile_without_profile_is_identity():
    assert apply_profile({"rounds": 2}) == {"rounds": 2}


def test_apply_profile_unknown_name_raises_value_error():
    with pytest.raises(ValueError, match="unknown scenario profile"):
        apply_profile({"profile": "typo"})


# ------------------------------------------------------------------- fuzzer
def test_fuzzer_is_deterministic_per_base_seed_and_index():
    a = list(ScenarioFuzzer(5).corpus(10))
    b = list(ScenarioFuzzer(5).corpus(10))
    assert a == b
    c = list(ScenarioFuzzer(6).corpus(10))
    assert a != c
    # Extending a corpus never changes its prefix.
    assert list(ScenarioFuzzer(5).corpus(4)) == a[:4]


def test_fuzzer_samples_are_well_formed():
    for sample in ScenarioFuzzer(1).corpus(40):
        params = sample.params_dict()
        assert params["total_nodes"] in NODE_COUNTS
        # Liars stay a strict minority of the responders.
        assert params["liar_count"] <= (params["total_nodes"] - 2) // 4
        assert params["rounds"] == FUZZ_ROUNDS
        assert params["random_initial_trust"] is False
        if sample.differential:
            assert params["attack_variant"] == "false_existing_link"
        # The profile must be resolvable and consistent with the flag.
        assert get_profile(sample.profile).differential == sample.differential


def test_fuzzer_covers_every_registered_profile():
    seen = {sample.profile for sample in ScenarioFuzzer(0).corpus(60)}
    assert seen == {p.name for p in list_profiles()}


def test_fuzzed_scenario_cli_reproducer_mentions_every_param():
    sample = ScenarioFuzzer(0).sample(0)
    command = reproducer_command(sample.params_dict(), sample.seed, "figure1")
    assert command.startswith("python -m repro.experiments run figure1")
    assert f"--seed {sample.seed}" in command
    for name, value in sample.params:
        assert f"--param {name}={value}" in command


def test_fuzzer_requires_known_profiles():
    with pytest.raises(KeyError):
        ScenarioFuzzer(0, profiles=["nope"])


# -------------------------------------------------------- engine integration
def test_profile_axis_sweeps_through_the_engine():
    from repro.experiments.engine import run_experiment

    result = run_experiment(
        "figure1",
        backend="netsim",
        axes={"profile": ("paper-static", "liar-clique")},
        params={"cycles": 2, "warmup": 20.0, "total_nodes": 8, "liar_count": 2,
                "rounds": 2},
    )
    assert result.cells() == 2
    assert {spec.param("profile") for spec in result.specs} == {
        "paper-static", "liar-clique"}
    # Distinct profiles hash to distinct cells (resume-safe).
    assert len(set(result.hashes)) == 2
    assert len(result.rows()) > 0


def test_unknown_profile_value_fails_at_expansion_with_value_error():
    from repro.experiments.engine import get_experiment, run_experiment

    # Fail-fast: the typo is rejected while expanding the grid, before any
    # cell simulates.
    with pytest.raises(ValueError, match="unknown scenario profile"):
        get_experiment("figure1").expand(params={"profile": "typo"})
    with pytest.raises(ValueError, match="unknown scenario profile"):
        run_experiment("figure1", backend="netsim",
                       params={"profile": "typo", "cycles": 1, "rounds": 1})


def test_profile_contents_are_part_of_the_spec_hash():
    """Editing a profile must invalidate stored cells: the expanded
    parameters (not just the profile's name) enter the content hash."""
    from repro.experiments.engine import get_experiment
    from repro.scenarios import ScenarioProfile, register_profile
    from repro.scenarios import profiles as profiles_module

    def expand_hash():
        (spec,) = get_experiment("figure1").expand(
            backend="netsim", params={"profile": "hash-probe"})
        assert spec.param("profile") == "hash-probe"
        return spec.content_hash()

    register_profile(ScenarioProfile(
        name="hash-probe", description="", kind="mobility",
        params=(("mobility_model", "walk"), ("max_speed", 2.0))))
    try:
        before = expand_hash()
        register_profile(ScenarioProfile(
            name="hash-probe", description="", kind="mobility",
            params=(("mobility_model", "walk"), ("max_speed", 5.0))))
        assert expand_hash() != before
    finally:
        del profiles_module._PROFILES["hash-probe"]
