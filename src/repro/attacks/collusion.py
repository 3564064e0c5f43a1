"""Coordinated collusion: liar cliques and multi-attack stacks.

The paper's evaluation uses *independent* liars: each misbehaving responder
privately decides whether to falsify its answer, so with a lie probability
below 1 the liars frequently contradict one another, and the investigator's
direct trust (Eq. 5), which takes a disagreement evidence for every answer
against the majority, picks the disagreeing ones off individually.  A
*clique* is the stronger adversary: its members draw one shared decision per
(suspect, time epoch) and all answer identically — either everyone shields
the suspect this epoch or everyone stays honest — so their answers are
mutually consistent and their combined Eq. 8 weight moves as one block.

:class:`ThreatStack` composes several attacks on the same compromised node
(e.g. grayhole + liar: drop traffic *and* shield yourself during the ensuing
investigation), which is how real compromises present: one misbehaving
router, several observable symptoms.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Set

from repro.attacks.base import Attack, AttackSchedule
from repro.attacks.liar import LiarBehavior, LieMode
from repro.seeding import stable_seed


class LiarClique:
    """Shared decision stream for a clique of colluding liars.

    The clique decides *once* per (suspect, epoch) whether its members lie,
    suppress or answer honestly during that epoch; every member consults the
    same decision, so the clique never contradicts itself.  Decisions are
    derived with :func:`repro.seeding.stable_seed` from the clique seed, the
    suspect and the epoch index — not from a shared mutable RNG — so they are
    independent of the order in which members are queried, which keeps
    oracle- and netsim-backend runs of the same scenario comparable.

    ``epoch_length`` maps simulated time onto decision epochs (the oracle
    round loop passes round indices as time, so the default of 1.0 gives one
    decision per round there; the netsim backend's 10-second detection cycles
    land 10 cycles per epoch decision at 1.0 — pass the cycle length to align
    them).
    """

    def __init__(
        self,
        protected_suspects: Optional[Iterable[str]] = None,
        lie_probability: float = 1.0,
        suppress_probability: float = 0.0,
        mode: LieMode = LieMode.PROTECT,
        epoch_length: float = 1.0,
        seed: int = 0,
        schedule: Optional[AttackSchedule] = None,
    ) -> None:
        if not 0.0 <= lie_probability <= 1.0:
            raise ValueError("lie_probability must be in [0, 1]")
        if not 0.0 <= suppress_probability <= 1.0:
            raise ValueError("suppress_probability must be in [0, 1]")
        if epoch_length <= 0.0:
            raise ValueError("epoch_length must be positive")
        self.protected_suspects: Optional[Set[str]] = (
            set(protected_suspects) if protected_suspects is not None else None
        )
        self.lie_probability = lie_probability
        self.suppress_probability = suppress_probability
        self.mode = mode
        self.epoch_length = epoch_length
        self.seed = seed
        self.schedule = schedule or AttackSchedule()
        self.members: List["CliqueMember"] = []

    # ------------------------------------------------------------- decisions
    def decision(self, suspect: str, now: float) -> str:
        """The clique-wide verdict for ``suspect`` at time ``now``.

        Returns ``"lie"``, ``"suppress"`` or ``"honest"``; every member maps
        the same (suspect, epoch) to the same verdict.
        """
        epoch = int(now // self.epoch_length)
        rng = random.Random(stable_seed(self.seed, f"clique:{suspect}@{epoch}"))
        if self.suppress_probability and rng.random() < self.suppress_probability:
            return "suppress"
        if rng.random() < self.lie_probability:
            return "lie"
        return "honest"

    def member_decision(self, member_id: str, suspect: str, now: float) -> str:
        """The verdict ``member_id`` applies for ``suspect`` at time ``now``.

        The base clique ignores the member identity — everyone executes the
        shared epoch decision.  Subclasses (the rotating clique of
        :mod:`repro.attacks.adaptive`) override this to vary the verdict per
        member while keeping the shared stream intact.
        """
        return self.decision(suspect, now)

    # -------------------------------------------------------------- members
    def member(self, node_id: str) -> "CliqueMember":
        """Create (and register) the lying behaviour of one clique member."""
        behavior = CliqueMember(self, node_id)
        self.members.append(behavior)
        return behavior


class CliqueMember(LiarBehavior):
    """One liar whose decisions come from its :class:`LiarClique`.

    Inherits the installation contract and the counters of
    :class:`~repro.attacks.liar.LiarBehavior`; only the per-query decision is
    replaced by the clique's shared verdict.
    """

    name = "clique-liar"

    def __init__(self, clique: LiarClique, member_id: str) -> None:
        super().__init__(
            protected_suspects=clique.protected_suspects,
            lie_probability=clique.lie_probability,
            suppress_probability=clique.suppress_probability,
            mode=clique.mode,
            schedule=clique.schedule,
        )
        self.clique = clique
        self.member_id = member_id

    def _decide(self, suspect: str, honest: Optional[bool], now: float) -> Optional[bool]:
        verdict = self.clique.member_decision(self.member_id, suspect, now)
        if verdict == "suppress":
            self.answers_suppressed += 1
            return None
        if verdict == "lie":
            self.lies_told += 1
            return self._lie(honest)
        self.honest_answers += 1
        return honest

    def _mutate_answer(self, suspect: str, requester: str,
                       honest: Optional[bool]) -> Optional[bool]:
        now = self._now()
        if not self.is_active(now) or not self._concerns_protected(suspect):
            self.honest_answers += 1
            return honest
        return self._decide(suspect, honest, now)

    def answer(self, honest: Optional[bool], now: float = 0.0,
               suspect: Optional[str] = None) -> Optional[bool]:
        """Stand-alone form used by the round-based harness."""
        if not self.is_active(now):
            self.honest_answers += 1
            return honest
        target = suspect
        if target is None:
            protected = self.protected_suspects or set()
            target = next(iter(sorted(protected)), "*")
        if not self._concerns_protected(target):
            self.honest_answers += 1
            return honest
        return self._decide(target, honest, now)


class ThreatStack(Attack):
    """Several attacks installed together on one compromised node.

    A stacked threat is one adversary with several observable behaviours —
    the canonical example being *grayhole + liar*: the node drops traffic it
    should relay and, when investigated (for anything), shields itself with
    falsified answers.  The stack delegates ``install`` to each layer and
    mirrors activation controls to all of them, so scenarios treat it as a
    single attack.

    The stack-level ``schedule`` is an AND-gate over the layers: a layer is
    active only while its *own* schedule and the stack window both say so
    (a manual ``activate()``/``deactivate()`` on a layer still wins, matching
    the mirrored-control semantics).
    """

    name = "threat-stack"

    def __init__(self, attacks: Iterable[Attack],
                 schedule: Optional[AttackSchedule] = None) -> None:
        super().__init__(schedule)
        self.attacks: List[Attack] = list(attacks)
        if not self.attacks:
            raise ValueError("a threat stack needs at least one attack")
        for attack in self.attacks:
            # Bound method, not ``self.schedule.is_active``: replacing the
            # stack's schedule later must keep gating the layers.
            attack.add_activation_gate(self._stack_window)

    def _stack_window(self, now: float) -> bool:
        """Whether the stack-level schedule admits activity at ``now``."""
        return self.schedule.is_active(now)

    def install(self, node) -> None:
        for attack in self.attacks:
            attack.install(node)
        self.mark_installed(getattr(node, "node_id", "unknown"))

    def activate(self) -> None:
        super().activate()
        for attack in self.attacks:
            attack.activate()

    def deactivate(self) -> None:
        super().deactivate()
        for attack in self.attacks:
            attack.deactivate()

    def follow_schedule(self) -> None:
        super().follow_schedule()
        for attack in self.attacks:
            attack.follow_schedule()


def grayhole_liar_stack(
    protected_suspects: Optional[Iterable[str]] = None,
    drop_probability: float = 0.7,
    lie_probability: float = 1.0,
    start_time: float = 0.0,
    rng: Optional[random.Random] = None,
    liar_rng: Optional[random.Random] = None,
) -> ThreatStack:
    """The canonical stacked threat: probabilistic dropping + self-shielding.

    The compromised node grayholes relayed traffic and lies whenever an
    investigation touches one of ``protected_suspects`` (pass its own id to
    model pure self-protection).
    """
    from repro.attacks.dropping import GrayholeAttack

    schedule = AttackSchedule(start_time=start_time)
    grayhole = GrayholeAttack(drop_probability=drop_probability,
                              schedule=AttackSchedule(start_time=start_time),
                              rng=rng)
    liar = LiarBehavior(protected_suspects=protected_suspects,
                        lie_probability=lie_probability,
                        schedule=AttackSchedule(start_time=start_time),
                        rng=liar_rng)
    return ThreatStack([grayhole, liar], schedule=schedule)
