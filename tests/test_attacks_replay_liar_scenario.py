"""Tests for liar behaviour and attack scenarios."""

from __future__ import annotations

import random

import pytest

from repro.attacks.liar import LiarBehavior, LieMode
from repro.attacks.link_spoofing import LinkSpoofingAttack
from repro.attacks.scenario import AttackScenario
from repro.core.signatures import LinkSpoofingVariant
from tests.conftest import CHAIN_POSITIONS, make_olsr_network


def converged_chain():
    network, nodes = make_olsr_network(CHAIN_POSITIONS)
    network.run(until=30.0)
    return network, nodes


# --------------------------------------------------------------------- liar
class FakeDetectorNode:
    def __init__(self, node_id="liar"):
        self.node_id = node_id
        self.answer_mutators = []
        self.now = 0.0


def test_liar_protect_mode_always_confirms():
    liar = LiarBehavior(protected_suspects={"attacker"}, rng=random.Random(0))
    node = FakeDetectorNode()
    liar.install(node)
    mutator = node.answer_mutators[0]
    assert mutator("attacker", "victim", False) is True
    assert mutator("attacker", "victim", None) is True
    assert liar.lies_told == 2


def test_liar_frame_mode_always_denies():
    liar = LiarBehavior(protected_suspects={"innocent"}, mode=LieMode.FRAME,
                        rng=random.Random(0))
    assert liar.answer(True) is False
    assert liar.answer(None) is False


def test_liar_invert_mode():
    liar = LiarBehavior(mode=LieMode.INVERT, rng=random.Random(0))
    assert liar.answer(True) is False
    assert liar.answer(False) is True
    assert liar.answer(None) is True


def test_liar_only_lies_about_protected_suspects():
    liar = LiarBehavior(protected_suspects={"attacker"}, rng=random.Random(0))
    node = FakeDetectorNode()
    liar.install(node)
    mutator = node.answer_mutators[0]
    assert mutator("someone-else", "victim", False) is False
    assert liar.honest_answers == 1


def test_liar_lie_probability_zero_is_always_honest():
    liar = LiarBehavior(lie_probability=0.0, rng=random.Random(0))
    assert all(liar.answer(False) is False for _ in range(10))
    assert liar.lies_told == 0


def test_liar_suppression():
    liar = LiarBehavior(suppress_probability=1.0, rng=random.Random(0))
    assert liar.answer(False) is None
    assert liar.answers_suppressed == 1


def test_liar_deactivation_makes_it_honest():
    liar = LiarBehavior(rng=random.Random(0))
    liar.deactivate()
    assert liar.answer(False) is False


def test_liar_parameter_validation():
    with pytest.raises(ValueError):
        LiarBehavior(lie_probability=1.5)
    with pytest.raises(ValueError):
        LiarBehavior(suppress_probability=-0.1)
    liar = LiarBehavior()
    with pytest.raises(TypeError):
        liar.install(object())


# ------------------------------------------------------------------ scenario
def test_scenario_ground_truth_sets():
    scenario = AttackScenario(name="test")
    scenario.add("i", LinkSpoofingAttack(LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR, ["ghost"]))
    scenario.add("l1", LiarBehavior())
    scenario.add("l2", LiarBehavior())
    assert scenario.liars() == {"l1", "l2"}


def test_scenario_install_all_unknown_node_raises():
    scenario = AttackScenario()
    scenario.add("ghost", LiarBehavior())
    with pytest.raises(KeyError):
        scenario.install_all({})


def test_scenario_install_all_installs_every_attack():
    network, nodes = converged_chain()
    attack = LinkSpoofingAttack(LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR, ["ghost"])
    scenario = AttackScenario()
    scenario.add("B", attack)
    scenario.install_all(nodes)
    assert attack.installed_on == ["B"]
    assert attack.is_active(network.now)
