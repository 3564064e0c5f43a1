"""Metrics used to score detection runs and trust trajectories."""

from repro.metrics.detection import convergence_round
from repro.metrics.trust_metrics import (
    TrustTrajectoryReport,
    recovery_gap,
    separation,
    total_change,
)

__all__ = [
    "TrustTrajectoryReport",
    "convergence_round",
    "recovery_gap",
    "separation",
    "total_change",
]
