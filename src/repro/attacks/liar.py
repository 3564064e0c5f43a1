"""Colluding liars.

Liars are the misbehaving nodes of the paper's evaluation that "do not
perform link spoofing but foil the detection by providing incorrect answers"
to the cooperative investigation.  A liar behaviour is installed on a
:class:`repro.core.detector_node.DetectorNode` (or any responder exposing
``answer_mutators``); it inverts — or suppresses — the honest answer when
the query concerns one of the protected suspects.
"""

from __future__ import annotations

import enum
import random
from typing import Iterable, Optional, Set

from repro.attacks.base import Attack, AttackSchedule
from repro.seeding import stable_seed


class LieMode(str, enum.Enum):
    """How a liar falsifies its answers."""

    #: Always confirm the suspect's advertised links (shield the attacker).
    PROTECT = "protect"
    #: Always deny them (frame an innocent node).
    FRAME = "frame"
    #: Invert whatever the honest answer would have been.
    INVERT = "invert"

    def __str__(self) -> str:
        return self.value


class LiarBehavior(Attack):
    """Provide falsified answers to link-verification queries.

    Parameters
    ----------
    protected_suspects:
        Suspects on whose behalf the liar lies.  ``None`` means the liar lies
        about every query (full collusion with any attacker).
    lie_probability:
        Probability of lying on an eligible query (1.0 = always lie).
    suppress_probability:
        Probability of withholding the answer entirely instead of lying
        (models colluders that stay silent to avoid exposure).
    mode:
        :class:`LieMode` — shield the suspect (default), frame it, or simply
        invert the honest answer.
    """

    name = "liar"

    def __init__(
        self,
        protected_suspects: Optional[Iterable[str]] = None,
        lie_probability: float = 1.0,
        suppress_probability: float = 0.0,
        mode: LieMode = LieMode.PROTECT,
        schedule: Optional[AttackSchedule] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(schedule)
        if not 0.0 <= lie_probability <= 1.0:
            raise ValueError("lie_probability must be in [0, 1]")
        if not 0.0 <= suppress_probability <= 1.0:
            raise ValueError("suppress_probability must be in [0, 1]")
        self.protected_suspects: Optional[Set[str]] = (
            set(protected_suspects) if protected_suspects is not None else None
        )
        self.lie_probability = lie_probability
        self.suppress_probability = suppress_probability
        self.mode = mode
        # Per-node stream derived at install() time when no rng is supplied
        # (stable_seed of the node id, mirroring OracleTransport's per-owner
        # derivation): two default-constructed liars used to share
        # random.Random(0) and lie on the exact same query indices.
        self._rng_supplied = rng is not None
        self.rng = rng if rng is not None else random.Random(0)
        self.lies_told = 0
        self.answers_suppressed = 0
        self.honest_answers = 0
        self._node = None

    def install(self, node) -> None:
        if not hasattr(node, "answer_mutators"):
            raise TypeError("LiarBehavior must be installed on a node exposing answer_mutators")
        self._node = node
        node_id = getattr(node, "node_id", "unknown")
        if not self._rng_supplied and not self.installed_on:
            self.rng = random.Random(stable_seed(0, f"attack:{self.name}:{node_id}"))
        node.answer_mutators.append(self._mutate_answer)
        self.mark_installed(node_id)

    # ------------------------------------------------------------------ logic
    def _concerns_protected(self, suspect: str) -> bool:
        if self.protected_suspects is None:
            return True
        return suspect in self.protected_suspects

    def _now(self) -> float:
        node = self._node
        if node is None:
            return 0.0
        router = getattr(node, "router", None)
        if router is not None:
            return router.now
        return getattr(node, "now", 0.0)

    def _lie(self, honest: Optional[bool]) -> Optional[bool]:
        """The falsified answer according to the configured mode."""
        if self.mode == LieMode.PROTECT:
            return True
        if self.mode == LieMode.FRAME:
            return False
        # INVERT: fabricate a protecting confirmation when there is nothing to invert.
        if honest is None:
            return True
        return not honest

    def _mutate_answer(self, suspect: str, requester: str,
                       honest: Optional[bool]) -> Optional[bool]:
        if not self.is_active(self._now()) or not self._concerns_protected(suspect):
            self.honest_answers += 1
            return honest
        if self.suppress_probability and self.rng.random() < self.suppress_probability:
            self.answers_suppressed += 1
            return None
        if self.rng.random() < self.lie_probability:
            self.lies_told += 1
            return self._lie(honest)
        self.honest_answers += 1
        return honest

    # simple-callable form used by the round-based experiment harness --------
    def answer(self, honest: Optional[bool], now: float = 0.0) -> Optional[bool]:
        """Stand-alone form of the lying decision, given the honest answer.

        A set override (:meth:`activate`/:meth:`deactivate`) decides without
        consulting the schedule, as :meth:`is_active` would.
        """
        active = self._manual_override
        if active is None:
            active = self.is_active(now)
        if not active:
            self.honest_answers += 1
            return honest
        if self.suppress_probability and self.rng.random() < self.suppress_probability:
            self.answers_suppressed += 1
            return None
        if self.rng.random() < self.lie_probability:
            self.lies_told += 1
            return self._lie(honest)
        self.honest_answers += 1
        return honest

    def describe(self) -> dict:
        data = super().describe()
        data.update(
            {
                "mode": str(self.mode),
                "lie_probability": self.lie_probability,
                "suppress_probability": self.suppress_probability,
                "lies_told": self.lies_told,
                "answers_suppressed": self.answers_suppressed,
            }
        )
        return data
