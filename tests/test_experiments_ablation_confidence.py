"""Tests for the ablation / baseline comparison and the confidence sweep."""

from __future__ import annotations

import pytest

from repro.core.decision import DecisionOutcome
from repro.experiments.ablation import _ablation_rows, replay_methods
from repro.experiments.config import ScenarioConfig
from repro.experiments.engine import run_experiment
from repro.experiments.rounds import RoundBasedExperiment


@pytest.fixture(scope="module")
def ablation_run():
    return RoundBasedExperiment(ScenarioConfig()).run()


@pytest.fixture(scope="module")
def ablation(ablation_run):
    return replay_methods(ablation_run)


def test_ablation_covers_all_methods(ablation):
    assert set(ablation) == {
        "trust-weighted", "unweighted-vote", "cap-olsr", "beta-reputation",
        "report-averaging",
    }
    for trajectory in ablation.values():
        assert len(trajectory.scores) == 25
        assert trajectory.final_score is not None


def test_ablation_trust_weighting_beats_unweighted_vote(ablation):
    ours = ablation["trust-weighted"]
    vote = ablation["unweighted-vote"]
    assert ours.final_score < vote.final_score
    assert ours.detection_round is not None
    # The plain vote cannot push past the liar bias (stays at the fixed ratio).
    assert vote.final_score == pytest.approx(vote.scores[0], abs=0.2)


def test_ablation_final_scores_separate_ours_from_baselines(ablation):
    ours = ablation["trust-weighted"].final_score
    for name in ("cap-olsr", "report-averaging", "beta-reputation"):
        assert ours < ablation[name].final_score


def test_ablation_rows_structure(ablation_run, ablation):
    rows = _ablation_rows(None, ablation_run)
    assert len(rows) == 5
    assert {row["method"] for row in rows} == set(ablation)


def test_ablation_same_answer_stream_for_all_methods(ablation):
    # Every method consumed the same number of rounds from the same experiment.
    rounds = {len(t.scores) for t in ablation.values()}
    assert len(rounds) == 1


def test_ablation_with_small_config_runs():
    methods = replay_methods(RoundBasedExperiment(ScenarioConfig(seed=3, rounds=5)).run())
    assert all(len(t.scores) == 5 for t in methods.values())


# ------------------------------------------------------------ confidence sweep
@pytest.fixture(scope="module")
def sweep():
    return run_experiment("confidence_sweep",
                          axes={"confidence_level": (0.90, 0.95, 0.99),
                                "gamma": (0.4, 0.6, 0.8)}).rows()


def test_sweep_has_one_row_per_configuration(sweep):
    assert len(sweep) == 9
    pairs = {(row["confidence_level"], row["gamma"]) for row in sweep}
    assert len(pairs) == 9


def test_sweep_low_gamma_configurations_detect_the_intruder(sweep):
    for row in sweep:
        if row["gamma"] <= 0.6:
            assert row["final_outcome"] == DecisionOutcome.INTRUDER
            assert row["rounds_to_decision"] is not None


def test_sweep_higher_confidence_never_speeds_up_detection(sweep):
    by_gamma = {}
    for row in sweep:
        if row["rounds_to_decision"] is not None:
            by_gamma.setdefault(row["gamma"], {})[row["confidence_level"]] = \
                row["rounds_to_decision"]
    for gamma, per_level in by_gamma.items():
        if 0.90 in per_level and 0.99 in per_level:
            assert per_level[0.99] >= per_level[0.90]


def test_sweep_higher_gamma_never_speeds_up_detection(sweep):
    by_level = {}
    for row in sweep:
        if row["rounds_to_decision"] is not None:
            by_level.setdefault(row["confidence_level"], {})[row["gamma"]] = \
                row["rounds_to_decision"]
    for level, per_gamma in by_level.items():
        gammas = sorted(per_gamma)
        for low, high in zip(gammas, gammas[1:]):
            assert per_gamma[high] >= per_gamma[low]


def test_sweep_margin_grows_with_confidence_level(sweep):
    margins = {row["confidence_level"]: row["final_margin"] for row in sweep
               if row["gamma"] == 0.6 and row["final_margin"] is not None}
    assert margins[0.99] > margins[0.90]


def test_sweep_correct_fraction_and_rows(sweep):
    correct = sum(1 for row in sweep if row["verdict_correct"])
    assert correct / len(sweep) >= 0.5
    assert len(sweep) == 9
    assert all("verdict_correct" in row for row in sweep)
