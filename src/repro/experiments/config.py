"""Experiment configuration.

The defaults reproduce the paper's evaluation setup (Section V): 16 nodes,
one link-spoofing attacker, 4 colluding liars (≈26.3 % of the nodes providing
answers), randomly assigned initial trust, 25 investigation rounds, default
trust 0.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.trust.manager import TrustParameters

#: Adversary adaptivity tiers the round loop (and the netsim threat
#: compositions) implement.  ``"static"`` reproduces the paper's open-loop
#: adversary; the adaptive tiers are the novel extension of
#: :mod:`repro.attacks.adaptive`.
ADAPTIVITY_MODES = ("static", "throttling", "rotating")


@dataclass
class ScenarioConfig:
    """Parameters of a round-based trust/detection experiment."""

    #: Total number of nodes, including the investigator and the attacker.
    total_nodes: int = 16
    #: Number of colluding liars among the responders (paper: 4).
    liar_count: int = 4
    #: Alternative way to size the liar set: fraction of the responders.
    liar_fraction: Optional[float] = None
    #: Number of investigation rounds (paper figures span 25 rounds).
    rounds: int = 25
    #: Round at which the attack (and the lying) ceases; ``None`` = never.
    attack_stop_round: Optional[int] = None
    #: Seed of the experiment-level random generator.
    seed: int = 7
    #: Initial trust values are drawn uniformly from this interval.
    initial_trust_min: float = 0.1
    initial_trust_max: float = 0.8
    #: When False, every node starts at the default trust instead of random.
    random_initial_trust: bool = True
    #: Probability that a query/answer is lost in a given round.
    answer_loss_probability: float = 0.0
    #: Decision-rule threshold γ and confidence level (Eqs. 9–10).
    gamma: float = 0.6
    confidence_level: float = 0.95
    #: Use Eq. 8 trust weighting (False = unweighted-vote ablation).
    use_trust_weighting: bool = True
    #: Terminate the investigation at the first conclusive decision.
    close_on_decision: bool = False
    #: Adversary adaptivity tier (see :data:`ADAPTIVITY_MODES`):
    #: ``"throttling"`` makes the attacker pause its misconduct whenever the
    #: investigator's trust in it falls to ``riding_threshold`` and resume at
    #: ``riding_resume`` (threshold riding, fed by a read-only trust probe);
    #: ``"rotating"`` makes only one liar per round lie while the rest stay
    #: honest, starving each liar's direct trust of harmful evidence.
    adaptivity: str = "static"
    #: Trust level at/below which a threshold-riding attacker pauses.
    riding_threshold: float = 0.32
    #: Trust level at which a paused threshold-rider resumes (hysteresis).
    riding_resume: float = 0.38
    #: Trust-system parameters (Eq. 5).  The experiment defaults keep a small
    #: positive trust floor (so distrusted nodes retain a marginal weight, as
    #: in the paper where Detect converges to ≈ −0.8 rather than −1) and a
    #: slow recovery factor for former liars (Figure 2's defensive recovery).
    trust: TrustParameters = field(
        default_factory=lambda: TrustParameters(
            alpha_beneficial=0.04,
            alpha_harmful=0.08,
            beta=0.95,
            minimum=0.05,
            beta_recovery=0.98,
        )
    )

    def __post_init__(self) -> None:
        if self.total_nodes < 3:
            raise ValueError("a scenario needs at least investigator, attacker and one responder")
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not 0.0 <= self.answer_loss_probability <= 1.0:
            raise ValueError(
                f"answer_loss_probability must be in [0, 1], "
                f"got {self.answer_loss_probability}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError(
                f"confidence level must be in (0, 1), got {self.confidence_level}")
        if self.initial_trust_min > self.initial_trust_max:
            raise ValueError(
                f"initial_trust_min must be <= initial_trust_max, "
                f"got {self.initial_trust_min} > {self.initial_trust_max}")
        if self.liar_fraction is not None and not 0.0 <= self.liar_fraction < 1.0:
            raise ValueError("liar_fraction must be in [0, 1)")
        if self.adaptivity not in ADAPTIVITY_MODES:
            raise ValueError(
                f"unknown adaptivity {self.adaptivity!r} "
                f"(expected one of {', '.join(ADAPTIVITY_MODES)})")
        if self.riding_resume < self.riding_threshold:
            raise ValueError("riding_resume must be >= riding_threshold")
        if self.liar_count < 0:
            raise ValueError(f"liar_count must be non-negative, got {self.liar_count}")
        if self.effective_liar_count() > self.responder_count():
            raise ValueError("more liars than responders")

    # ------------------------------------------------------------------ sizes
    def responder_count(self) -> int:
        """Number of responder nodes: everyone but the investigator and attacker."""
        return self.total_nodes - 2

    def effective_liar_count(self) -> int:
        """Liar count derived from ``liar_fraction`` when given, else ``liar_count``."""
        if self.liar_fraction is not None:
            return int(round(self.liar_fraction * self.responder_count()))
        return self.liar_count

    def liar_percentage(self) -> float:
        """Liars as a percentage of the responders (what Figure 3 sweeps)."""
        responders = self.responder_count()
        if responders == 0:
            return 0.0
        return 100.0 * self.effective_liar_count() / responders

    # ----------------------------------------------------------------- helpers
    def with_overrides(self, **changes) -> "ScenarioConfig":
        """Copy of the configuration with the given fields replaced."""
        return replace(self, **changes)
