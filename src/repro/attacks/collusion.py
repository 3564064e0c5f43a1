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
from repro.attacks.liar import LiarBehavior
from repro.seeding import stable_seed


class LiarClique:
    """Shared decision stream for a clique of colluding liars.

    The clique decides *once* per (suspect, epoch) whether its members lie
    or answer honestly during that epoch; every member consults the same
    decision, so the clique never contradicts itself.  Decisions are
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
        protected_suspects: Iterable[str],
        lie_probability: float = 1.0,
        epoch_length: float = 1.0,
        seed: int = 0,
        schedule: Optional[AttackSchedule] = None,
    ) -> None:
        if not 0.0 <= lie_probability <= 1.0:
            raise ValueError("lie_probability must be in [0, 1]")
        if epoch_length <= 0.0:
            raise ValueError("epoch_length must be positive")
        self.protected_suspects: Set[str] = set(protected_suspects)
        self.lie_probability = lie_probability
        self.epoch_length = epoch_length
        self.seed = seed
        self.schedule = schedule or AttackSchedule()
        self.members: List["CliqueMember"] = []

    # ------------------------------------------------------------- decisions
    def decision(self, suspect: str, now: float) -> bool:
        """Whether the clique lies about ``suspect`` at time ``now``.

        Every member maps the same (suspect, epoch) to the same verdict.
        """
        epoch = int(now // self.epoch_length)
        rng = random.Random(stable_seed(self.seed, f"clique:{suspect}@{epoch}"))
        return rng.random() < self.lie_probability

    def member_decision(self, member_id: str, suspect: str, now: float) -> bool:
        """Whether ``member_id`` lies about ``suspect`` at time ``now``.

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

    Inherits the installation contract of
    :class:`~repro.attacks.liar.LiarBehavior`; only the per-query decision is
    replaced by the clique's shared verdict.
    """

    name = "clique-liar"

    def __init__(self, clique: LiarClique, member_id: str) -> None:
        super().__init__(
            protected_suspects=clique.protected_suspects,
            lie_probability=clique.lie_probability,
            schedule=clique.schedule,
        )
        self.clique = clique
        self.member_id = member_id

    def _mutate_answer(self, suspect: str, requester: str,
                       honest: Optional[bool]) -> Optional[bool]:
        return self.answer(honest, self._now(), suspect)

    def answer(self, honest: Optional[bool], now: float = 0.0,
               suspect: Optional[str] = None) -> Optional[bool]:
        """The clique's verdict about ``suspect`` (by default the first
        protected suspect), given the honest answer."""
        if not self.is_active(now):
            return honest
        target = suspect if suspect is not None else min(self.protected_suspects, default="*")
        if target not in self.protected_suspects:
            return honest
        if self.clique.member_decision(self.member_id, target, now):
            return True
        return honest


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
    protected_suspects: Iterable[str],
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
