"""Full-stack simulation scenarios.

The round-based driver (:mod:`repro.experiments.rounds`) reproduces the
paper's evaluation; the scenarios below exercise the *whole* pipeline end to
end on a simulated MANET: OLSR runs, the attacker forges its HELLOs, the
victim's log analyzer raises E1, the cooperative investigation queries the
2-hop neighbours over paths avoiding the suspect, and the decision rule
produces a verdict.

Two builders are provided:

* :func:`build_canonical_scenario` — a small, fully deterministic topology
  designed so the MPR replacement (E1) provably happens once the attack
  starts; used by the integration tests and the quickstart example.
* :func:`build_manet_scenario` — an N-node random MANET with an attacker and
  a configurable fraction of liars, for larger demonstrations and the
  simulator-scale benches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.attacks.adaptive import (
    RotatingLiarClique,
    ThresholdRidingGrayhole,
    TrustProbe,
)
from repro.attacks.base import AttackSchedule
from repro.attacks.collusion import LiarClique, grayhole_liar_stack
from repro.attacks.dropping import OnOffDroppingAttack
from repro.attacks.liar import LiarBehavior
from repro.attacks.link_spoofing import LinkSpoofingAttack
from repro.attacks.scenario import AttackScenario
from repro.core.detector_node import DetectionConfig, DetectorNode
from repro.core.investigation import RoundResult
from repro.core.signatures import LinkSpoofingVariant
from repro.netsim.medium import (
    BernoulliLossModel,
    DistanceLossModel,
    LossModel,
    UnitDiskPropagation,
    WirelessMedium,
)
from repro.netsim.mobility import (
    GaussMarkovMobility,
    RandomWalkMobility,
    RandomWaypointMobility,
    ReferencePointGroupMobility,
    StaticPlacement,
    UniformRandomPlacement,
)
from repro.netsim.network import Network
from repro.netsim.engine import Simulator
from repro.olsr.constants import Willingness
from repro.olsr.node import OlsrConfig
from repro.seeding import stable_seed
from repro.trust.manager import TrustParameters


@dataclass
class SimulationScenario:
    """A built scenario: network, detector nodes and the attack plan."""

    network: Network
    nodes: Dict[str, DetectorNode]
    attack_scenario: AttackScenario
    victim_id: str
    attacker_id: str
    liar_ids: Set[str] = field(default_factory=set)
    #: Adaptive attack layers whose ``observe(now)`` feedback hook the
    #: driving loop must call once per detection cycle (see
    #: :mod:`repro.attacks.adaptive`).
    adaptive_attacks: List = field(default_factory=list)

    @property
    def victim(self) -> DetectorNode:
        """The investigating (attacked) node."""
        return self.nodes[self.victim_id]

    @property
    def attacker(self) -> DetectorNode:
        """The compromised node performing link spoofing."""
        return self.nodes[self.attacker_id]

    def start_all(self) -> None:
        """Start the routing process on every node.

        The victim's analyzer subscribes to its categories first.  It is the
        scenario's only log reader, so the other nodes' logs record nothing
        unless a :class:`~repro.validation.invariants.ScenarioAuditor`
        subscribes them too.
        """
        self.victim.analyzer.subscribe()
        for node in self.nodes.values():
            node.start()

    def bind_transports(self) -> None:
        """Give every node the suspect-avoiding query transport."""
        for node in self.nodes.values():
            node.bind_default_transport(self.nodes)

    def warm_up(self, duration: float = 30.0) -> None:
        """Run the network long enough for OLSR to converge."""
        self.network.run(until=self.network.now + duration)

    def run_detection_cycle(self, duration: float = 10.0) -> List[RoundResult]:
        """Advance the simulation and run one detection cycle on the victim."""
        self.network.run(until=self.network.now + duration)
        return self.victim.detection_round()


#: Coordinates of the canonical 6-node topology (radio range 250 m).
#: ``victim`` neighbours ``relay`` (honest MPR) and ``attacker``;
#: ``edge1``/``edge2`` are only reachable through ``relay``; ``shared`` is
#: reachable through both ``relay`` and ``attacker``.
CANONICAL_POSITIONS = {
    "victim": (0.0, 0.0),
    "relay": (0.0, 200.0),
    "attacker": (150.0, 100.0),
    "edge1": (0.0, 400.0),
    "edge2": (-150.0, 300.0),
    "shared": (150.0, 300.0),
}


def build_canonical_scenario(
    seed: int = 11,
    attack_start: float = 40.0,
    loss_probability: float = 0.0,
    detection_config: Optional[DetectionConfig] = None,
) -> SimulationScenario:
    """Build the deterministic 6-node link-spoofing scenario.

    Before ``attack_start`` the attacker behaves; afterwards it advertises
    spoofed symmetric links to ``edge1`` and ``edge2`` (which are not its
    neighbours), and — combined with its high willingness — replaces ``relay``
    as the victim's MPR, which is the E1 trigger.
    """
    simulator = Simulator()
    rng = random.Random(seed)
    medium = WirelessMedium(
        simulator,
        propagation=UnitDiskPropagation(radio_range=250.0),
        loss_model=BernoulliLossModel(
            loss_probability, rng=random.Random(stable_seed(seed, "loss-model"))),
    )
    network = Network(
        simulator=simulator,
        medium=medium,
        mobility=StaticPlacement(CANONICAL_POSITIONS),
        seed=seed,
    )
    network.add_nodes(list(CANONICAL_POSITIONS))

    nodes: Dict[str, DetectorNode] = {}
    for node_id in CANONICAL_POSITIONS:
        willingness = Willingness.WILL_HIGH if node_id == "attacker" else Willingness.WILL_DEFAULT
        config = OlsrConfig(willingness=willingness)
        nodes[node_id] = DetectorNode(
            node_id,
            network,
            olsr_config=config,
            detection_config=detection_config or DetectionConfig(),
            seed=rng.randint(0, 2 ** 31),
        )

    attack = LinkSpoofingAttack(
        variant=LinkSpoofingVariant.FALSE_EXISTING_LINK,
        target_addresses=["edge1", "edge2"],
    )
    attack.schedule.start_time = attack_start
    scenario = AttackScenario(name="canonical-link-spoofing")
    scenario.add("attacker", attack)
    scenario.install_all(nodes)

    built = SimulationScenario(
        network=network,
        nodes=nodes,
        attack_scenario=scenario,
        victim_id="victim",
        attacker_id="attacker",
    )
    built.start_all()
    built.bind_transports()
    return built


def _build_loss_model(kind: str, loss_probability: float, radio_range: float,
                      seed: int) -> LossModel:
    """Instantiate the named loss model with a stably derived RNG.

    ``stable_seed`` (not an additive offset) keeps the channel stream
    decorrelated from the scenario stream and from sibling campaign cells
    whose base seeds differ by small constants.
    """
    rng = random.Random(stable_seed(seed, "loss-model"))
    if kind == "bernoulli":
        return BernoulliLossModel(loss_probability, rng=rng)
    if kind == "distance":
        # loss_probability doubles as the distance model's max_loss, including
        # an explicit 0.0 (a lossless distance channel).
        return DistanceLossModel(radio_range=radio_range,
                                 max_loss=max(loss_probability, 0.0),
                                 rng=rng)
    raise ValueError(
        f"unknown loss model {kind!r} (expected one of {', '.join(LOSS_MODELS)})")


#: Loss models build_manet_scenario can instantiate by name.
LOSS_MODELS = ("bernoulli", "distance")

#: Mobility models build_manet_scenario can instantiate by name.
MOBILITY_MODELS = ("auto", "static", "waypoint", "walk", "gauss-markov", "rpgm")

#: Threat compositions build_manet_scenario can install by name.
THREATS = ("link-spoofing", "onoff-grayhole", "liar-clique", "grayhole-liar",
           "throttling-grayhole", "rotating-clique")


def _build_mobility(kind: str, area_size: float, max_speed: float,
                    rng: random.Random):
    """Instantiate the named mobility model for an ``area_size`` square.

    ``"auto"`` reproduces the historic behaviour: random waypoint when
    ``max_speed`` is positive, static uniform placement otherwise.  The
    mobile models fall back to their own sensible default speed when
    ``max_speed`` is 0, so a ``mobility_model`` axis can be swept without
    also sweeping speeds.
    """
    if kind == "auto":
        kind = "waypoint" if max_speed > 0.0 else "static"
    if kind == "static":
        return UniformRandomPlacement(width=area_size, height=area_size, rng=rng)
    speed = max_speed if max_speed > 0.0 else 5.0
    if kind == "waypoint":
        return RandomWaypointMobility(
            width=area_size, height=area_size,
            min_speed=max(0.5, speed / 4.0), max_speed=speed,
            pause_time=2.0, rng=rng,
        )
    if kind == "walk":
        return RandomWalkMobility(width=area_size, height=area_size,
                                  max_step=speed, rng=rng)
    if kind == "gauss-markov":
        return GaussMarkovMobility(
            width=area_size, height=area_size,
            mean_speed=max_speed if max_speed > 0.0 else 3.0,
            rng=rng,
        )
    if kind == "rpgm":
        return ReferencePointGroupMobility(
            width=area_size, height=area_size,
            min_speed=max(0.5, speed / 4.0), max_speed=speed,
            member_radius=area_size / 6.0, rng=rng,
        )
    raise ValueError(
        f"unknown mobility model {kind!r} (expected one of {', '.join(MOBILITY_MODELS)})")


def build_manet_scenario(
    node_count: int = 16,
    liar_count: int = 4,
    seed: int = 23,
    area_size: float = 800.0,
    radio_range: float = 250.0,
    loss_probability: float = 0.0,
    attack_start: float = 40.0,
    detection_config: Optional[DetectionConfig] = None,
    attack_variant: LinkSpoofingVariant = LinkSpoofingVariant.FALSE_EXISTING_LINK,
    loss_model: str = "bernoulli",
    max_speed: float = 0.0,
    mobility_model: str = "auto",
    threat: str = "link-spoofing",
    drop_probability: float = 0.7,
    trust_parameters: Optional["TrustParameters"] = None,
) -> SimulationScenario:
    """Build an ``node_count``-node random MANET with one attacker and liars.

    The attacker spoofs symmetric links toward a sample of distant nodes; the
    liar nodes protect it during investigations.  The victim is the node with
    the most neighbours among the attacker's neighbours (so an investigation
    is actually possible).

    ``attack_variant`` selects the link-spoofing expression (1–3),
    ``loss_model`` names the channel model (``"bernoulli"`` or
    ``"distance"``), ``mobility_model`` names the motion model (``"auto"``
    keeps the historic behaviour: random waypoint when ``max_speed`` > 0,
    static otherwise; see :data:`MOBILITY_MODELS`), and ``threat`` names the
    composition layered on top of the base link-spoofing attack (see
    :data:`THREATS`):

    * ``"link-spoofing"`` — the paper's scenario: spoofing attacker plus
      independent liars.
    * ``"onoff-grayhole"`` — the attacker additionally drops relayed traffic
      with ``drop_probability`` during periodic on-windows.
    * ``"liar-clique"`` — the liars coordinate through one shared decision
      stream (:class:`repro.attacks.collusion.LiarClique`), never
      contradicting each other.
    * ``"grayhole-liar"`` — a stacked threat: the attacker grayholes *and*
      shields itself with falsified answers when investigated, on top of the
      independent liars.
    * ``"throttling-grayhole"`` — the adaptive tier: the attacker grayholes
      but *rides the detection threshold*, pausing its dropping whenever the
      victim's trust in it nears the classification level and resuming as
      forgetting restores headroom (:class:`repro.attacks.adaptive.
      ThresholdRidingGrayhole`, fed back through a read-only trust probe).
    * ``"rotating-clique"`` — the liar clique, but with a single *active*
      liar rotating per epoch while the rest answer honestly, starving each
      liar's direct trust of harmful evidence
      (:class:`repro.attacks.adaptive.RotatingLiarClique`).

    These (with ``loss_model``/``max_speed``) are the axes the ``campaign``
    experiment and the unified experiment CLI sweep.
    """
    if node_count < 4:
        raise ValueError("a MANET scenario needs at least 4 nodes")
    if liar_count < 0:
        raise ValueError(f"liar_count must be non-negative, got {liar_count}")
    if liar_count >= node_count - 2:
        raise ValueError("too many liars for the node count")
    if threat not in THREATS:
        raise ValueError(
            f"unknown threat {threat!r} (expected one of {', '.join(THREATS)})")

    simulator = Simulator()
    rng = random.Random(seed)
    medium = WirelessMedium(
        simulator,
        propagation=UnitDiskPropagation(radio_range=radio_range),
        loss_model=_build_loss_model(loss_model, loss_probability, radio_range, seed),
    )
    mobility_rng = random.Random(stable_seed(seed, "mobility"))
    mobility = _build_mobility(mobility_model, area_size, max_speed, mobility_rng)
    network = Network(
        simulator=simulator,
        medium=medium,
        mobility=mobility,
        seed=seed,
    )
    node_ids = [f"n{i:02d}" for i in range(node_count)]
    network.add_nodes(node_ids)

    nodes: Dict[str, DetectorNode] = {}
    attacker_id = node_ids[1]
    for node_id in node_ids:
        willingness = (Willingness.WILL_HIGH if node_id == attacker_id
                       else Willingness.WILL_DEFAULT)
        nodes[node_id] = DetectorNode(
            node_id,
            network,
            olsr_config=OlsrConfig(willingness=willingness),
            trust_parameters=trust_parameters,
            detection_config=detection_config or DetectionConfig(),
            seed=rng.randint(0, 2 ** 31),
        )

    # Victim: the attacker's best-connected radio neighbour (fallback: n00).
    attacker_neighbors = network.neighbors_of(attacker_id)
    victim_id = node_ids[0]
    if attacker_neighbors:
        victim_id = max(
            attacker_neighbors,
            key=lambda nid: (len(network.neighbors_of(nid)), nid),
        )

    scenario = AttackScenario(name=f"manet-{node_count}n-{liar_count}liars-{threat}")
    # Pick targets matching the spoofing expression: phantom addresses for
    # variant 1, existing non-neighbours for variant 2, real neighbours
    # (other than the victim) for variant 3.
    if attack_variant == LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR:
        spoof_targets = [f"phantom{seed}-{i}" for i in range(max(3, node_count // 3))]
    elif attack_variant == LinkSpoofingVariant.OMITTED_NEIGHBOR:
        omittable = sorted(nid for nid in attacker_neighbors if nid != victim_id)
        spoof_targets = omittable[: max(1, len(omittable) // 2)] or [victim_id]
    else:
        non_neighbors = [
            nid for nid in node_ids
            if nid not in attacker_neighbors and nid not in (attacker_id, victim_id)
        ]
        rng.shuffle(non_neighbors)
        spoof_targets = non_neighbors[: max(3, node_count // 3)] or [f"phantom{seed}"]

    attack = LinkSpoofingAttack(
        variant=attack_variant,
        target_addresses=spoof_targets,
    )
    attack.schedule.start_time = attack_start
    scenario.add(attacker_id, attack)

    # Threat composition: extra payloads stacked on the spoofing attacker.
    adaptive_attacks: List = []
    if threat == "onoff-grayhole":
        scenario.add(attacker_id, OnOffDroppingAttack(
            drop_probability=drop_probability,
            on_duration=15.0, off_duration=15.0,
            start_time=attack_start,
            rng=random.Random(stable_seed(seed, "grayhole")),
        ))
    elif threat == "grayhole-liar":
        scenario.add(attacker_id, grayhole_liar_stack(
            protected_suspects={attacker_id},
            drop_probability=drop_probability,
            start_time=attack_start,
            rng=random.Random(stable_seed(seed, "grayhole")),
            liar_rng=random.Random(stable_seed(seed, "self-liar")),
        ))
    elif threat == "throttling-grayhole":
        # The adaptive tier: the attacker additionally grayholes, but paces
        # the dropping against its own trust as the victim scores it — the
        # probe is bound to the victim's trust manager (victim_id is chosen
        # above, before threat composition) and drive_netsim_scenario calls
        # observe() once per detection cycle.
        rider = ThresholdRidingGrayhole(
            max_drop_probability=drop_probability,
            schedule=AttackSchedule(start_time=attack_start),
            rng=random.Random(stable_seed(seed, "threshold-grayhole")),
        )
        rider.bind_probe(TrustProbe(nodes[victim_id].trust, attacker_id))
        scenario.add(attacker_id, rider)
        adaptive_attacks.append(rider)

    # Liars: sampled among the remaining nodes.
    candidates = [nid for nid in node_ids if nid not in (attacker_id, victim_id)]
    rng.shuffle(candidates)
    liar_ids = set(candidates[:liar_count])
    if threat in ("liar-clique", "rotating-clique"):
        # One shared decision stream: the clique never contradicts itself.
        # Intermittent lying (p < 1) is what coordination changes: either the
        # whole clique shields the attacker this epoch or the whole clique
        # answers honestly — independent liars at the same rate would split.
        # The rotating variant additionally fields only one active liar per
        # epoch (the rest answer honestly), starving each liar's direct
        # trust of harmful evidence.
        clique_cls = RotatingLiarClique if threat == "rotating-clique" else LiarClique
        clique = clique_cls(protected_suspects={attacker_id},
                            lie_probability=0.9,
                            epoch_length=10.0,
                            seed=stable_seed(seed, "clique"))
        for liar_id in sorted(liar_ids):
            scenario.add(liar_id, clique.member(liar_id))
    else:
        for liar_id in sorted(liar_ids):
            # stable_seed keeps the per-liar streams disjoint: the old additive
            # ``seed + digest % 997`` capped the offset, allowing two liars to
            # collide on the same RNG stream.
            liar = LiarBehavior(protected_suspects={attacker_id},
                                rng=random.Random(stable_seed(seed, f"liar:{liar_id}")))
            scenario.add(liar_id, liar)

    scenario.install_all(nodes)

    built = SimulationScenario(
        network=network,
        nodes=nodes,
        attack_scenario=scenario,
        victim_id=victim_id,
        attacker_id=attacker_id,
        liar_ids=liar_ids,
        adaptive_attacks=adaptive_attacks,
    )
    built.start_all()
    built.bind_transports()
    return built
