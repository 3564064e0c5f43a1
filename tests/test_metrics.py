"""Tests for detection and trust-trajectory metrics."""

from __future__ import annotations

import pytest

from repro.metrics.detection import convergence_round
from repro.metrics.trust_metrics import (
    TrustTrajectoryReport,
    recovery_gap,
    separation,
    total_change,
)


# ----------------------------------------------------------------- convergence
def test_convergence_round_below_threshold():
    trajectory = [0.1, -0.2, -0.5, -0.9]
    assert convergence_round(trajectory, -0.4) == 2
    assert convergence_round(trajectory, -0.95) is None


def test_convergence_round_above_threshold():
    trajectory = [0.1, 0.3, 0.7]
    assert convergence_round(trajectory, 0.6, below=False) == 2


# ------------------------------------------------------------------ trust
def test_total_change():
    assert total_change([0.4, 0.6]) == pytest.approx(0.2)
    assert total_change([0.4]) == 0.0
    assert total_change([]) == 0.0


def test_recovery_gap():
    assert recovery_gap([0.0, 0.1, 0.25], target=0.4) == pytest.approx(0.15)
    assert recovery_gap([], target=0.4) == pytest.approx(0.4)


def test_separation_between_groups():
    trajectories = {
        "h1": [0.4, 0.6], "h2": [0.4, 0.7],
        "l1": [0.4, 0.1], "l2": [0.4, 0.2],
    }
    value = separation(trajectories, {"h1", "h2"}, {"l1", "l2"})
    assert value == pytest.approx(0.5)
    assert separation({}, {"h1"}, {"l1"}) == 0.0


def test_trajectory_report_checks():
    report = TrustTrajectoryReport(
        observer="victim",
        trajectories={
            "h1": [0.3, 0.4, 0.5],
            "h2": [0.2, 0.2, 0.25],
            "l1": [0.7, 0.4, 0.1],
            "attacker": [0.5, 0.2, 0.0],
        },
        liars={"l1"},
        honest={"h1", "h2"},
        attacker="attacker",
    )
    assert report.liars_all_decreasing()
    assert report.honest_all_non_decreasing()
    assert report.final_separation() > 0.2
    assert report.liar_trajectories().keys() == {"l1"}
    assert set(report.honest_trajectories()) == {"h1", "h2"}
