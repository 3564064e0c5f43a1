"""Colluding liars.

Liars are the misbehaving nodes of the paper's evaluation that "do not
perform link spoofing but foil the detection by providing incorrect answers"
to the cooperative investigation.  A liar behaviour is installed on a
:class:`repro.core.detector_node.DetectorNode` (or any responder exposing
``answer_mutators``); it confirms the suspect's advertised link, whatever
the honest answer, when the query concerns one of the protected suspects.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Set

from repro.attacks.base import Attack, AttackSchedule
from repro.seeding import stable_seed


class LiarBehavior(Attack):
    """Provide falsified answers to link-verification queries.

    A liar shields the attacker: when a query concerns one of the protected
    suspects, it confirms the suspect's advertised link with probability
    ``lie_probability`` and answers honestly otherwise.

    Parameters
    ----------
    protected_suspects:
        Suspects on whose behalf the liar lies.
    lie_probability:
        Probability of lying on an eligible query (1.0 = always lie).
    """

    name = "liar"

    def __init__(
        self,
        protected_suspects: Iterable[str],
        lie_probability: float = 1.0,
        schedule: Optional[AttackSchedule] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(schedule)
        if not 0.0 <= lie_probability <= 1.0:
            raise ValueError("lie_probability must be in [0, 1]")
        self.protected_suspects: Set[str] = set(protected_suspects)
        self.lie_probability = lie_probability
        # Per-node stream derived at install() time when no rng is supplied
        # (stable_seed of the node id, mirroring OracleTransport's per-owner
        # derivation): two default-constructed liars used to share
        # random.Random(0) and lie on the exact same query indices.
        self._rng_supplied = rng is not None
        self.rng = rng if rng is not None else random.Random(0)
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
    def _now(self) -> float:
        node = self._node
        if node is None:
            return 0.0
        router = getattr(node, "router", None)
        if router is not None:
            return router.now
        return getattr(node, "now", 0.0)

    def _mutate_answer(self, suspect: str, requester: str,
                       honest: Optional[bool]) -> Optional[bool]:
        if suspect not in self.protected_suspects:
            return honest
        return self.answer(honest, self._now())

    def answer(self, honest: Optional[bool], now: float = 0.0) -> Optional[bool]:
        """The lying decision about a protected suspect, given the honest answer.

        The round-based harness calls it directly.  A set override
        (:meth:`activate`/:meth:`deactivate`) decides without consulting the
        schedule, as :meth:`is_active` would.
        """
        active = self._manual_override
        if active is None:
            active = self.is_active(now)
        if active and self.rng.random() < self.lie_probability:
            return True
        return honest
