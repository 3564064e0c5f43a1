"""Attack scenarios: attach attacks to nodes on a schedule.

An :class:`AttackScenario` maps node identifiers to the attacks they carry
and installs everything on a network of nodes in one call.  It also exposes
the ground truth (who misbehaves, who is a liar) that the metrics module
needs to score the detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set

from repro.attacks.base import Attack
from repro.attacks.liar import LiarBehavior


@dataclass
class AttackScenario:
    """A collection of attacks keyed by compromised node id."""

    name: str = "scenario"
    attacks_by_node: Dict[str, List[Attack]] = field(default_factory=dict)

    # ------------------------------------------------------------- definition
    def add(self, node_id: str, attack: Attack) -> "AttackScenario":
        """Attach ``attack`` to ``node_id`` (chainable)."""
        self.attacks_by_node.setdefault(node_id, []).append(attack)
        return self

    def install_all(self, nodes: Mapping[str, object]) -> None:
        """Install every attack on its node; unknown node ids raise ``KeyError``."""
        for node_id, attacks in self.attacks_by_node.items():
            if node_id not in nodes:
                raise KeyError(f"scenario references unknown node {node_id!r}")
            for attack in attacks:
                attack.install(nodes[node_id])

    # ------------------------------------------------------------ ground truth
    def liars(self) -> Set[str]:
        """Nodes carrying a liar behaviour."""
        result = set()
        for node_id, attacks in self.attacks_by_node.items():
            if any(isinstance(a, LiarBehavior) for a in attacks):
                result.add(node_id)
        return result

