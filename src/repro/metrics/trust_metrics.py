"""Trust-trajectory analytics.

Figures 1 and 2 of the paper plot the trust value of every node (as seen by
the attacked node) across investigation rounds.  The helpers below compute
the properties those figures illustrate: decrease for liars, no decrease
for honest nodes, separation between the two groups, and the recovery
behaviour after the attack ceases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set


def total_change(values: Sequence[float]) -> float:
    """Last value minus first value (0 for empty or singleton sequences)."""
    if len(values) < 2:
        return 0.0
    return values[-1] - values[0]


def separation(
    trajectories: Mapping[str, Sequence[float]],
    group_a: Set[str],
    group_b: Set[str],
    at_round: int = -1,
) -> float:
    """Difference between the mean trust of two groups at a given round.

    Positive values mean group A is trusted more than group B.  Nodes whose
    trajectory is shorter than ``at_round`` are skipped.
    """
    def mean_at(group: Set[str]) -> Optional[float]:
        values = []
        for node in group:
            trajectory = trajectories.get(node)
            if not trajectory:
                continue
            try:
                values.append(trajectory[at_round])
            except IndexError:
                continue
        if not values:
            return None
        return sum(values) / len(values)

    mean_a = mean_at(group_a)
    mean_b = mean_at(group_b)
    if mean_a is None or mean_b is None:
        return 0.0
    return mean_a - mean_b


def recovery_gap(values: Sequence[float], target: float) -> float:
    """Distance between the final trust value and a recovery target.

    Figure 2 material: after the attack ceases, well-behaving nodes converge
    back to the default trust while former liars remain below it; the gap
    quantifies how far each node still is.
    """
    if not values:
        return target
    return target - values[-1]


@dataclass
class TrustTrajectoryReport:
    """Summary of a set of trust trajectories for one observer."""

    observer: str
    trajectories: Dict[str, List[float]] = field(default_factory=dict)
    liars: Set[str] = field(default_factory=set)
    honest: Set[str] = field(default_factory=set)
    attacker: Optional[str] = None

    def liar_trajectories(self) -> Dict[str, List[float]]:
        """Trajectories of the liar nodes."""
        return {n: t for n, t in self.trajectories.items() if n in self.liars}

    def honest_trajectories(self) -> Dict[str, List[float]]:
        """Trajectories of the honest nodes."""
        return {n: t for n, t in self.trajectories.items() if n in self.honest}

    def liars_all_decreasing(self) -> bool:
        """Whether every liar's trust decreased over the experiment."""
        return all(total_change(t) < 0 for t in self.liar_trajectories().values() if t)

    def honest_all_non_decreasing(self) -> bool:
        """Whether every honest node's trust did not decrease overall."""
        return all(total_change(t) >= -1e-9 for t in self.honest_trajectories().values() if t)

    def final_separation(self) -> float:
        """Mean honest trust minus mean liar trust at the last round."""
        return separation(self.trajectories, self.honest, self.liars, at_round=-1)
