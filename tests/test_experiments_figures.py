"""Tests for the figure-reproduction experiments (paper Figures 1–3).

These tests assert the *qualitative shapes* the paper reports, not absolute
numbers (our substrate is a simulator, not the authors' testbed).
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.figure1 import _figure1_rows
from repro.experiments.figure2 import _figure2_rows
from repro.experiments.figure3 import FIGURE3_LIAR_COUNTS, _figure3_row
from repro.experiments.rounds import RoundBasedExperiment
from repro.metrics.detection import convergence_round
from repro.metrics.trust_metrics import TrustTrajectoryReport, recovery_gap


def _run(config):
    return RoundBasedExperiment(config).run()


# The configurations of the figure1/figure2/figure3 engine registrations.
@pytest.fixture(scope="module")
def figure1():
    return _run(ScenarioConfig())


@pytest.fixture(scope="module")
def figure2():
    return _run(ScenarioConfig(rounds=75, attack_stop_round=25))


@pytest.fixture(scope="module")
def figure3():
    return {label: _run(ScenarioConfig(liar_count=count))
            for label, count in FIGURE3_LIAR_COUNTS.items()}


def _trajectory_report(result):
    return TrustTrajectoryReport(
        observer=result.investigator,
        trajectories=result.trust_trajectories(),
        liars=result.liars,
        honest=result.honest_responders,
        attacker=result.attacker,
    )


def _recovery_gaps(result):
    default = result.config.trust.default_trust
    return {node: recovery_gap(trajectory, default)
            for node, trajectory in result.trust_trajectories().items()}


def _detect_series(results):
    return {label: result.detect_values() for label, result in results.items()}


# ------------------------------------------------------------------ Figure 1
def test_figure1_liars_lose_trust_regardless_of_initial_value(figure1):
    report = _trajectory_report(figure1)
    assert report.liars_all_decreasing()
    for liar in figure1.liars:
        assert figure1.trust_trajectory(liar)[-1] < 0.15


def test_figure1_honest_nodes_never_lose_trust(figure1):
    report = _trajectory_report(figure1)
    assert report.honest_all_non_decreasing()


def test_figure1_honest_low_trust_nodes_gain_only_moderately(figure1):
    # "the well-behaving nodes which have low initial trust values gain a
    # little of trustworthiness during the 25 rounds"
    for node in figure1.honest_responders:
        initial = figure1.initial_trust[node]
        final = figure1.trust_trajectory(node)[-1]
        if initial < 0.3:
            assert final - initial < 0.55


def test_figure1_clear_separation_between_groups(figure1):
    report = _trajectory_report(figure1)
    assert report.final_separation() > 0.3


def test_figure1_attacker_trust_collapses(figure1):
    assert figure1.trust_trajectory(figure1.attacker)[-1] < 0.1


def test_figure1_rows_structure(figure1):
    rows = _figure1_rows(None, figure1)
    assert len(rows) == 15  # 14 responders + attacker
    roles = {row["role"] for row in rows}
    assert roles == {"attacker", "liar", "honest"}
    for row in rows:
        assert row["final_trust"] is not None


# ------------------------------------------------------------------ Figure 2
def test_figure2_honest_nodes_return_to_default(figure2):
    gaps = _recovery_gaps(figure2)
    for node in figure2.honest_responders:
        assert abs(gaps[node]) < 0.1


def test_figure2_former_liars_recover_slowly_and_stay_below_default(figure2):
    gaps = _recovery_gaps(figure2)
    honest_gap = max(abs(gaps[n]) for n in figure2.honest_responders)
    for liar in figure2.liars:
        assert gaps[liar] > 0.05
        assert gaps[liar] > honest_gap
        # Former liars recover monotonically (no new misconduct) after the stop.
        post = figure2.trust_trajectory(liar)[figure2.config.attack_stop_round:]
        assert post[-1] >= post[0]


def test_figure2_rows_report_gap_to_default(figure2):
    rows = _figure2_rows(None, figure2)
    by_node = {row["node"]: row for row in rows}
    liar = next(iter(figure2.liars))
    honest = next(iter(figure2.honest_responders))
    assert by_node[liar]["gap_to_default"] > by_node[honest]["gap_to_default"]


# ------------------------------------------------------------------ Figure 3
def test_figure3_more_liars_slow_down_convergence(figure3):
    convergence = {label: convergence_round(series, -0.4, below=True)
                   for label, series in _detect_series(figure3).items()}
    low, mid, high = convergence["6.7%"], convergence["26.3%"], convergence["43.2%"]
    assert low is not None and mid is not None and high is not None
    assert low <= mid <= high


def test_figure3_detection_converges_below_minus_04_by_round_10(figure3):
    # "after 10 rounds, the result of the investigation falls down to −0.4
    # even when liars represent 43.2% of the nodes"
    for label, series in _detect_series(figure3).items():
        assert series[10] <= -0.4, f"{label} still at {series[10]} at round 10"


def test_figure3_final_value_strongly_negative_for_all_ratios(figure3):
    # "in the last rounds, the investigation converges and reaches −0.8
    # regardless of the percentage of liars"
    for label, series in _detect_series(figure3).items():
        value = series[-1] if series else 0.0
        assert value <= -0.75, f"{label} ended at {value}"


def test_figure3_early_rounds_ordered_by_liar_ratio(figure3):
    series = _detect_series(figure3)
    assert series["6.7%"][0] < series["26.3%"][0] < series["43.2%"][0]


def test_figure3_rows_structure(figure3):
    rows = [_figure3_row(label, result) for label, result in figure3.items()]
    assert len(rows) == 3
    assert [row["liar_ratio"] for row in rows] == ["6.7%", "26.3%", "43.2%"]
    assert all(row["final_detect"] < -0.7 for row in rows)


def test_figure3_custom_sweep():
    configs = {
        "0%": ScenarioConfig(seed=2, liar_count=0, rounds=5),
        "50%": ScenarioConfig(seed=2, liar_count=7, rounds=5),
    }
    series = _detect_series({label: _run(config) for label, config in configs.items()})
    assert series["0%"][0] == pytest.approx(-1.0)
    assert series["50%"][0] > series["0%"][0]
