"""Round-based experiment driver.

The paper evaluates its trust system as a sequence of *investigation rounds*:
in every round the attacked node interrogates the 1-hop neighbours of the
suspect about the contested link, aggregates the answers with Eq. 8, applies
the decision rule and updates the trust of every participant.  This module
drives exactly that loop on top of the library's
:class:`repro.core.investigation.CooperativeInvestigator`:

* the attacker keeps advertising a spoofed link for as long as the attack is
  active;
* honest responders truthfully deny the spoofed link;
* liars (colluding misbehaving nodes) confirm it, foiling the detection;
* when the attack ceases (Figure 2) the investigation stops and the trust
  values evolve under the forgetting factor alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.attacks.adaptive import TrustProbe
from repro.attacks.liar import LiarBehavior
from repro.core.decision import DecisionOutcome
from repro.core.investigation import CooperativeInvestigator, OracleTransport
from repro.experiments.config import ScenarioConfig
from repro.seeding import stable_seed
from repro.trust.manager import TrustManager


#: ``RoundBasedExperiment._fielded`` markers: every liar lies, or the liars
#: have not been switched yet.
_ALL_LIARS = object()
_UNFIELDED = object()


class _Responder:
    """A responder in the round-based experiment.

    The truthful answer to "is the suspect your symmetric neighbour (as it
    advertises)?" is read from the experiment's attack flag: while the
    attack is active the advertised link is spoofed, so a truthful
    responder denies it; once the attacker stops spoofing, its
    advertisement matches reality again.  A liar behaviour, when installed,
    falsifies the answer.
    """

    def __init__(self, node_id: str, experiment: "RoundBasedExperiment",
                 liar: Optional[LiarBehavior] = None) -> None:
        self.node_id = node_id
        self._experiment = experiment
        self.liar = liar

    def answer_link_query(self, suspect: str, requester: str,
                          link_peer: Optional[str] = None) -> Optional[bool]:
        honest = not self._experiment._attack_active
        if self.liar is None:
            return honest
        return self.liar.answer(honest)


@dataclass
class RoundRecord:
    """What happened during one experiment round."""

    round_index: int
    attack_active: bool
    detect_value: Optional[float]
    outcome: Optional[DecisionOutcome]
    margin: Optional[float]
    trust_snapshot: Dict[str, float] = field(default_factory=dict)
    answers: Dict[str, float] = field(default_factory=dict)
    #: Responders no query path could reach this round (netsim backend; the
    #: oracle transport reaches everyone, so it stays 0 there).
    unreached: int = 0


@dataclass
class ExperimentResult:
    """Full outcome of a round-based experiment."""

    config: ScenarioConfig
    investigator: str
    attacker: str
    liars: Set[str]
    honest_responders: Set[str]
    rounds: List[RoundRecord] = field(default_factory=list)
    initial_trust: Dict[str, float] = field(default_factory=dict)
    #: Substrate statistics (frames, events) — filled by the netsim backend.
    stats: Dict[str, float] = field(default_factory=dict)

    # ----------------------------------------------------------------- views
    @property
    def responders(self) -> Set[str]:
        """Every responder (liars and honest)."""
        return self.liars | self.honest_responders

    def trust_trajectory(self, node: str) -> List[float]:
        """Trust of ``node`` (as seen by the investigator) per round."""
        return [record.trust_snapshot.get(node, 0.0) for record in self.rounds]

    def trust_trajectories(self) -> Dict[str, List[float]]:
        """Trajectories of every responder and of the attacker."""
        nodes = sorted(self.responders | {self.attacker})
        return {node: self.trust_trajectory(node) for node in nodes}

    def detect_values(self) -> List[float]:
        """Detect values of the rounds where an investigation actually ran."""
        return [r.detect_value for r in self.rounds if r.detect_value is not None]

    def final_outcome(self) -> Optional[DecisionOutcome]:
        """Outcome of the last investigated round."""
        for record in reversed(self.rounds):
            if record.outcome is not None:
                return record.outcome
        return None

    def role_of(self, node: str) -> str:
        """"attacker", "liar", "honest" or "investigator"."""
        if node == self.attacker:
            return "attacker"
        if node == self.investigator:
            return "investigator"
        if node in self.liars:
            return "liar"
        return "honest"


class RoundBasedExperiment:
    """Builds and runs the paper's round-based evaluation scenario."""

    SPOOFED_LINK_TARGET = "victim-link"

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        self.rng = random.Random(self.config.seed)
        self.investigator_id = "n00"
        self.attacker_id = "n01"
        self.responder_ids = [f"n{i:02d}" for i in range(2, self.config.total_nodes)]
        liar_count = self.config.effective_liar_count()
        shuffled = list(self.responder_ids)
        self.rng.shuffle(shuffled)
        self.liar_ids: Set[str] = set(shuffled[:liar_count])
        self.honest_ids: Set[str] = set(self.responder_ids) - self.liar_ids

        self._attack_active = True
        self.trust = TrustManager(self.investigator_id, self.config.trust)
        #: Read-only feedback surface of the adaptive adversary tiers: the
        #: throttling attacker observes its own trust (as the investigator
        #: scores it) through this probe and nothing else.
        self._trust_probe = TrustProbe(self.trust, self.attacker_id)
        self._riding_paused = False
        self._liar_behaviors: Dict[str, LiarBehavior] = {}
        #: Which liars lie, as last fielded: ``None`` (none), ``_ALL_LIARS``
        #: or the one active liar's id; ``_UNFIELDED`` before the first round.
        self._fielded: object = _UNFIELDED
        self._responders: Dict[str, _Responder] = {}
        self._build_responders()
        self._assign_initial_trust()

        self.transport = OracleTransport(
            self._responders,
            loss_probability=self.config.answer_loss_probability,
            rng=random.Random(stable_seed(self.config.seed, "oracle-transport")),
        )
        self.investigator = CooperativeInvestigator(
            owner=self.investigator_id,
            transport=self.transport,
            trust_manager=self.trust,
            gamma=self.config.gamma,
            confidence_level=self.config.confidence_level,
            use_trust_weighting=self.config.use_trust_weighting,
            close_on_decision=self.config.close_on_decision,
        )
        self.investigator.open_investigation(self.attacker_id, self.responder_ids)

    # ----------------------------------------------------------------- set-up
    def _build_responders(self) -> None:
        for node_id in self.responder_ids:
            liar: Optional[LiarBehavior] = None
            if node_id in self.liar_ids:
                # stable_seed keeps the liar streams disjoint per node: the
                # old additive ``seed + digest % 1000`` capped the offset at
                # 1000, so distinct liars could collide on one RNG stream.
                liar = LiarBehavior(
                    protected_suspects={self.attacker_id},
                    lie_probability=1.0,
                    rng=random.Random(stable_seed(self.config.seed, f"liar:{node_id}")),
                )
                self._liar_behaviors[node_id] = liar
            self._responders[node_id] = _Responder(node_id, self, liar)

    def _assign_initial_trust(self) -> None:
        subjects = list(self.responder_ids) + [self.attacker_id]
        for node_id in subjects:
            if self.config.random_initial_trust:
                value = self.rng.uniform(self.config.initial_trust_min,
                                         self.config.initial_trust_max)
            else:
                value = self.config.trust.default_trust
            self.trust.set_initial_trust(node_id, value)

    # -------------------------------------------------------------------- run
    def attack_active_at(self, round_index: int) -> bool:
        """Whether the attack (and the lying) is active during ``round_index``."""
        stop = self.config.attack_stop_round
        return stop is None or round_index < stop

    def run(self, rounds: Optional[int] = None) -> ExperimentResult:
        """Run the configured number of rounds and return the result."""
        total_rounds = rounds if rounds is not None else self.config.rounds
        result = ExperimentResult(
            config=self.config,
            investigator=self.investigator_id,
            attacker=self.attacker_id,
            liars=set(self.liar_ids),
            honest_responders=set(self.honest_ids),
            initial_trust=self.trust.as_dict(),
        )
        for round_index in range(total_rounds):
            result.rounds.append(self.run_round(round_index))
        return result

    def run_round(self, round_index: int) -> RoundRecord:
        """Run a single round and return its record."""
        self._attack_active = self.attack_active_at(round_index)
        if self._attack_active and self.config.adaptivity == "throttling":
            self._attack_active = not self._riding_pauses_now()
        self._apply_liar_policy(round_index)

        if self._attack_active and not self._investigation_closed():
            round_result = self.investigator.run_round(self.attacker_id)
            record = RoundRecord(
                round_index=round_index,
                attack_active=True,
                detect_value=round_result.decision.detect_value,
                outcome=round_result.decision.outcome,
                margin=round_result.decision.interval.margin,
                answers=round_result.answers,
                unreached=len(round_result.responders_unreached),
            )
        else:
            # No contested link: the trust values evolve under forgetting only.
            self.trust.decay_all()
            record = RoundRecord(
                round_index=round_index,
                attack_active=self._attack_active,
                detect_value=None,
                outcome=None,
                margin=None,
            )
        record.trust_snapshot = self.trust.as_dict()
        return record

    def _riding_pauses_now(self) -> bool:
        """Threshold riding: pause/resume hysteresis on the probed trust.

        The attacker reads its own trust as the investigator sees it
        (through the read-only probe) and stops spoofing once that trust
        falls to ``riding_threshold``; paused rounds look misconduct-free,
        so the forgetting factor restores headroom until ``riding_resume``
        readmits the attack.
        """
        trust = self._trust_probe.read()
        if self._riding_paused:
            if trust >= self.config.riding_resume:
                self._riding_paused = False
        elif trust <= self.config.riding_threshold:
            self._riding_paused = True
        return self._riding_paused

    def _apply_liar_policy(self, round_index: int) -> None:
        """Activate the liars the current adaptivity tier fields this round.

        Static (and throttling) adversaries field every liar while the
        attack is active — the paper's behaviour, bit for bit.  The rotating
        tier fields exactly one liar per round (round-indexed entry of the
        sorted roster) and keeps the rest honest, which starves each liar's
        direct trust of harmful evidence: a liar takes one disagreement
        evidence per rotation and agreement evidence in the rounds between.

        A fielded liar is switched on with ``activate``.  Its schedule is
        the default one and it answers at time 0.0, where that schedule is
        active, so this is what following the schedule would decide.  The
        liars are switched only when the fielded set changes.
        """
        fielded: object = None
        if self._attack_active:
            fielded = _ALL_LIARS
            if self.config.adaptivity == "rotating" and self._liar_behaviors:
                roster = sorted(self._liar_behaviors)
                fielded = roster[round_index % len(roster)]
        if fielded == self._fielded:
            return
        self._fielded = fielded
        for node_id, liar in self._liar_behaviors.items():
            if fielded is _ALL_LIARS or node_id == fielded:
                liar.activate()
            else:
                liar.deactivate()

    def _investigation_closed(self) -> bool:
        state = self.investigator.state_of(self.attacker_id)
        return bool(state and state.closed)
