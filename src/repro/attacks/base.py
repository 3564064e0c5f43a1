"""Attack framework.

An :class:`Attack` installs hooks into a victim-controlled
:class:`repro.olsr.node.OlsrNode`, either directly or wrapped in a
:class:`repro.core.detector_node.DetectorNode`, without modifying the
protocol implementation itself, mirroring how a compromised router behaves
from the outside: drop attacks append to ``forward_filters``, link spoofing
to ``hello_mutators``, and liars to the detector node's
``answer_mutators``.  Attacks are activated and deactivated on a schedule,
so experiments can model attacks that cease mid-run (Figure 2 of the
paper).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass
class AttackSchedule:
    """Activation of an attack from ``start_time`` on.

    An attack lasts for the rest of the experiment once it starts, the
    paper's default ("the attack takes place during the overall experiment,
    unless specified").  An attack that ceases mid-run is deactivated by the
    experiment that drives it.
    """

    start_time: float = 0.0

    def is_active(self, now: float) -> bool:
        """Whether the attack is active at simulated time ``now``."""
        return now >= self.start_time


@dataclass
class PeriodicSchedule(AttackSchedule):
    """On–off activation: active ``on_duration`` out of every period.

    Starting at ``start_time``, the attack alternates between an active
    window of ``on_duration`` seconds and a quiet window of ``off_duration``
    seconds.  Intermittent misbehaviour is much harder to pin down than a
    permanent attack — the paper's detector only collects evidence while the
    misconduct is observable — so this schedule is the backbone of the
    "on–off dropping" threat profile.
    """

    on_duration: float = 10.0
    off_duration: float = 10.0

    def __post_init__(self) -> None:
        if self.on_duration <= 0.0:
            raise ValueError("on_duration must be positive")
        if self.off_duration < 0.0:
            raise ValueError("off_duration must be non-negative")

    def is_active(self, now: float) -> bool:
        if not super().is_active(now):
            return False
        period = self.on_duration + self.off_duration
        return (now - self.start_time) % period < self.on_duration


class Attack(abc.ABC):
    """Base class of every attack implementation."""

    name: str = "attack"

    def __init__(self, schedule: Optional[AttackSchedule] = None) -> None:
        self.schedule = schedule or AttackSchedule()
        self.installed_on: List[str] = []
        self._manual_override: Optional[bool] = None
        self._activation_gates: List[Callable[[float], bool]] = []

    # ---------------------------------------------------------------- control
    def is_active(self, now: float) -> bool:
        """Whether the attack currently applies (manual override wins).

        Without an override the attack is active when its own schedule says
        so AND every registered activation gate agrees — a composite such as
        :class:`~repro.attacks.collusion.ThreatStack` gates its layers on the
        stack-level window this way.
        """
        if self._manual_override is not None:
            return self._manual_override
        if not self.schedule.is_active(now):
            return False
        gates = self._activation_gates
        if not gates:
            return True
        return all(gate(now) for gate in gates)

    def add_activation_gate(self, gate: Callable[[float], bool]) -> None:
        """AND an extra ``gate(now) -> bool`` condition into :meth:`is_active`."""
        self._activation_gates.append(gate)

    def activate(self) -> None:
        """Force the attack on regardless of the schedule."""
        self._manual_override = True

    def deactivate(self) -> None:
        """Force the attack off regardless of the schedule."""
        self._manual_override = False

    def follow_schedule(self) -> None:
        """Return control to the schedule after a manual override."""
        self._manual_override = None

    # ----------------------------------------------------------------- install
    @abc.abstractmethod
    def install(self, node) -> None:
        """Install the attack's hooks on ``node``."""

    def mark_installed(self, node_id: str) -> None:
        """Record that the attack was installed on ``node_id``."""
        if node_id not in self.installed_on:
            self.installed_on.append(node_id)


def _underlying_router(node):
    """Return the OLSR router behind either a router or a DetectorNode."""
    if hasattr(node, "router"):
        return node.router
    return node

