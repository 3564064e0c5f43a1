"""Tests for the extension experiments: mobility study and gravity ablation."""

from __future__ import annotations

import pytest

from repro.experiments.engine import run_experiment


# ----------------------------------------------------------------- mobility
@pytest.fixture(scope="module")
def mobility_study():
    return run_experiment("mobility", axes={"max_speed": (0.0, 8.0)},
                          params={"total_nodes": 12, "liar_count": 2,
                                  "cycles": 5}).rows()


def test_mobility_study_one_row_per_speed(mobility_study):
    assert [row["max_speed_m_s"] for row in mobility_study] == [0.0, 8.0]
    for row in mobility_study:
        assert 0.0 <= row["missing_answer_ratio"] <= 1.0
        assert 0.0 <= row["unreached_ratio"] <= 1.0


def test_mobility_static_network_detects_the_attacker(mobility_study):
    static = mobility_study[0]
    assert static["attacker_investigated"]
    assert static["final_detect"] is not None
    assert static["final_detect"] < 0.0
    assert static["attacker_trust"] < 0.4


def test_mobility_ratios_well_formed(mobility_study):
    for row in mobility_study:
        # Unreached responders are a subset of the missing answers.
        assert row["unreached_ratio"] <= row["missing_answer_ratio"] + 1e-9


# ----------------------------------------------------------------- gravity
@pytest.fixture(scope="module")
def gravity():
    return run_experiment("gravity_ablation",
                          axes={"trust_alpha_harmful": (0.02, 0.08, 0.16)},
                          params={"rounds": 15}).rows()


def test_gravity_ablation_rows(gravity):
    assert len(gravity) == 3
    assert [row["alpha_harmful"] for row in gravity] == [0.02, 0.08, 0.16]
    assert all(row["asymmetry"] == pytest.approx(row["alpha_harmful"] / 0.04)
               for row in gravity)


def test_gravity_more_asymmetry_punishes_liars_harder(gravity):
    # More asymmetric weighting must never *raise* the liars' final trust.
    ordered = sorted(gravity, key=lambda row: row["asymmetry"])
    trusts = [row["mean_liar_trust"] for row in ordered]
    assert all(b <= a + 1e-6 for a, b in zip(trusts, trusts[1:]))
    first, last = gravity[0], gravity[-1]
    assert last["mean_liar_trust"] <= first["mean_liar_trust"]


def test_gravity_detection_still_converges_for_all_settings(gravity):
    for row in gravity:
        assert row["final_detect"] < -0.5


def test_gravity_honest_collateral_is_bounded(gravity):
    for row in gravity:
        assert row["honest_collateral"] < 0.2
