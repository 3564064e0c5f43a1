"""Tests for threat compositions: periodic schedules, coordinated liar
cliques and multi-attack stacks."""

from __future__ import annotations

import random

import pytest

from repro.attacks import (
    AttackSchedule,
    GrayholeAttack,
    LiarBehavior,
    LiarClique,
    OnOffDroppingAttack,
    PeriodicSchedule,
    ThreatStack,
    grayhole_liar_stack,
)
from repro.attacks.scenario import AttackScenario
from repro.experiments.scenario import build_manet_scenario


# ---------------------------------------------------------- PeriodicSchedule
def test_periodic_schedule_alternates_on_and_off():
    schedule = PeriodicSchedule(start_time=10.0, on_duration=5.0, off_duration=3.0)
    assert not schedule.is_active(9.9)         # before start
    assert schedule.is_active(10.0)            # first on-window
    assert schedule.is_active(14.9)
    assert not schedule.is_active(15.0)        # off-window
    assert not schedule.is_active(17.9)
    assert schedule.is_active(18.0)            # second period
    assert schedule.is_active(22.9)
    assert not schedule.is_active(23.5)


def test_periodic_schedule_validates():
    with pytest.raises(ValueError):
        PeriodicSchedule(on_duration=0.0)
    with pytest.raises(ValueError):
        PeriodicSchedule(off_duration=-1.0)


# ---------------------------------------------------------------- LiarClique
def test_clique_members_always_agree():
    clique = LiarClique(protected_suspects={"attacker"}, lie_probability=0.6,
                        epoch_length=1.0, seed=13)
    members = [clique.member(f"m{i}") for i in range(4)]
    for epoch in range(20):
        answers = {m.answer(honest=False, now=float(epoch), suspect="attacker")
                   for m in members}
        assert len(answers) == 1, f"clique split at epoch {epoch}"


def test_clique_decisions_are_order_independent_and_seeded():
    clique_a = LiarClique(protected_suspects={"s"}, lie_probability=0.5, seed=3)
    clique_b = LiarClique(protected_suspects={"s"}, lie_probability=0.5, seed=3)
    # Query b in reverse epoch order: decisions must match a's.
    forward = [clique_a.decision("s", float(e)) for e in range(10)]
    backward = [clique_b.decision("s", float(e)) for e in reversed(range(10))]
    assert forward == list(reversed(backward))
    # A different seed gives a different decision sequence.
    clique_c = LiarClique(protected_suspects={"s"}, lie_probability=0.5, seed=4)
    assert forward != [clique_c.decision("s", float(e)) for e in range(10)]


def test_clique_intermittent_lying_actually_mixes():
    clique = LiarClique(protected_suspects={"s"}, lie_probability=0.5, seed=7)
    verdicts = {clique.decision("s", float(e)) for e in range(40)}
    assert verdicts == {True, False}


def test_clique_member_ignores_unprotected_suspects():
    clique = LiarClique(protected_suspects={"attacker"}, lie_probability=1.0)
    member = clique.member("m0")
    assert member.answer(honest=False, now=0.0, suspect="innocent") is False
    assert member.answer(honest=False, now=0.0, suspect="attacker") is True


def test_clique_counts_as_liar_in_scenario_ground_truth():
    clique = LiarClique(protected_suspects={"a"})
    scenario = AttackScenario()
    scenario.add("m0", clique.member("m0"))
    assert scenario.liars() == {"m0"}


def test_clique_validates_parameters():
    with pytest.raises(ValueError):
        LiarClique({"a"}, lie_probability=1.5)
    with pytest.raises(ValueError):
        LiarClique({"a"}, epoch_length=0.0)


# --------------------------------------------------------------- ThreatStack
def test_threat_stack_installs_and_mirrors_controls():
    class Recorder(LiarBehavior):
        pass

    grayhole = GrayholeAttack(drop_probability=0.5, rng=random.Random(1),
                              schedule=AttackSchedule(start_time=5.0))
    liar = Recorder(protected_suspects={"self"},
                    schedule=AttackSchedule(start_time=5.0))
    stack = ThreatStack([grayhole, liar], schedule=AttackSchedule(start_time=5.0))

    class Node:
        node_id = "evil"
        answer_mutators = []

        class router:
            node_id = "evil"
            forward_filters = []

    node = Node()
    stack.install(node)
    assert stack.installed_on == ["evil"]
    assert grayhole.installed_on == ["evil"]
    assert liar.installed_on == ["evil"]

    stack.deactivate()
    assert not grayhole.is_active(100.0) and not liar.is_active(100.0)
    stack.activate()
    assert grayhole.is_active(0.0) and liar.is_active(0.0)
    stack.follow_schedule()
    assert not grayhole.is_active(0.0) and grayhole.is_active(5.0)


def test_threat_stack_schedule_gates_every_layer():
    """Regression: ``ThreatStack(schedule=...)`` used to be dead state — the
    layers consulted only their own schedules.  The stack window now ANDs
    into each layer's activation."""
    grayhole = GrayholeAttack(drop_probability=1.0, rng=random.Random(1))
    liar = LiarBehavior(protected_suspects={"self"})
    # The stack window is open over [50, 100) and closed for long after.
    window = PeriodicSchedule(start_time=50.0, on_duration=50.0, off_duration=1000.0)
    stack = ThreatStack([grayhole, liar], schedule=window)
    # The layers' own schedules say "always"; the stack window still gates.
    assert not grayhole.is_active(10.0) and not liar.is_active(10.0)
    assert grayhole.is_active(60.0) and liar.is_active(60.0)
    assert not grayhole.is_active(100.0) and not liar.is_active(100.0)
    # A layer's own (narrower) schedule still applies inside the window.
    narrow = GrayholeAttack(drop_probability=1.0, rng=random.Random(2),
                            schedule=AttackSchedule(start_time=70.0))
    ThreatStack([narrow], schedule=window)
    assert not narrow.is_active(60.0) and narrow.is_active(80.0)
    # Manual overrides keep winning over both windows.
    stack.activate()
    assert grayhole.is_active(10.0)
    stack.deactivate()
    assert not grayhole.is_active(60.0)
    stack.follow_schedule()
    assert grayhole.is_active(60.0)


def test_threat_stack_requires_at_least_one_attack():
    with pytest.raises(ValueError):
        ThreatStack([])


def test_grayhole_liar_stack_composition():
    stack = grayhole_liar_stack(protected_suspects={"evil"}, drop_probability=0.9,
                                start_time=3.0)
    kinds = {type(a).__name__ for a in stack.attacks}
    assert kinds == {"GrayholeAttack", "LiarBehavior"}
    for attack in stack.attacks:
        assert attack.schedule.start_time == 3.0


# -------------------------------------------------- scenario-level wiring
def test_manet_scenario_threat_compositions_install_expected_payloads():
    clique_scenario = build_manet_scenario(node_count=10, liar_count=3, seed=5,
                                           threat="liar-clique")
    liar_attacks = [
        attacks for node, attacks
        in clique_scenario.attack_scenario.attacks_by_node.items()
        if node in clique_scenario.liar_ids
    ]
    assert len(liar_attacks) == 3
    cliques = {id(a[0].clique) for a in liar_attacks}
    assert len(cliques) == 1  # one shared clique coordinator

    stacked = build_manet_scenario(node_count=10, liar_count=2, seed=5,
                                   threat="grayhole-liar")
    attacker_payloads = stacked.attack_scenario.attacks_by_node[stacked.attacker_id]
    assert {type(a).__name__ for a in attacker_payloads} == {
        "LinkSpoofingAttack", "ThreatStack"}

    onoff = build_manet_scenario(node_count=10, liar_count=2, seed=5,
                                 threat="onoff-grayhole")
    attacker_payloads = onoff.attack_scenario.attacks_by_node[onoff.attacker_id]
    assert {type(a).__name__ for a in attacker_payloads} == {
        "LinkSpoofingAttack", "OnOffDroppingAttack"}

    with pytest.raises(ValueError):
        build_manet_scenario(node_count=10, liar_count=2, seed=5, threat="nope")


def test_manet_scenario_adaptive_threat_compositions():
    riding = build_manet_scenario(node_count=10, liar_count=2, seed=5,
                                  threat="throttling-grayhole")
    payloads = riding.attack_scenario.attacks_by_node[riding.attacker_id]
    assert {type(a).__name__ for a in payloads} == {
        "LinkSpoofingAttack", "ThresholdRidingGrayhole"}
    rider = next(a for a in payloads
                 if type(a).__name__ == "ThresholdRidingGrayhole")
    # The feedback loop is wired: a probe on the victim's trust manager,
    # and the scenario exposes the layer for per-cycle observe() calls.
    assert rider.probe is not None
    assert rider.probe.subject == riding.attacker_id
    assert riding.adaptive_attacks == [rider]

    rotating = build_manet_scenario(node_count=10, liar_count=3, seed=5,
                                    threat="rotating-clique")
    cliques = {
        id(attacks[0].clique) for node, attacks
        in rotating.attack_scenario.attacks_by_node.items()
        if node in rotating.liar_ids
    }
    assert len(cliques) == 1
    member = next(
        attacks[0] for node, attacks
        in rotating.attack_scenario.attacks_by_node.items()
        if node in rotating.liar_ids)
    assert type(member.clique).__name__ == "RotatingLiarClique"
    assert rotating.adaptive_attacks == []     # rotation needs no probe


def test_onoff_grayhole_drops_only_in_on_windows():
    attack = OnOffDroppingAttack(drop_probability=1.0, on_duration=10.0,
                                 off_duration=10.0, start_time=0.0,
                                 rng=random.Random(0))

    class Node:
        now = 0.0

    node = Node()
    message = object()
    # On-window: everything eligible is dropped.
    node.now = 5.0
    assert attack._filter(message, "last", node) is False
    # Off-window: the very same node relays faithfully.
    node.now = 15.0
    assert attack._filter(message, "last", node) is True
    # Next on-window drops again.
    node.now = 25.0
    assert attack._filter(message, "last", node) is False
    assert attack.dropped_count == 2
