"""Integration tests for the random MANET scenario builder."""

from __future__ import annotations

import random

import pytest

from repro.attacks.liar import LiarBehavior
from repro.attacks.link_spoofing import LinkSpoofingAttack
from repro.experiments.scenario import build_manet_scenario
from repro.logs.records import LogCategory


@pytest.fixture(scope="module")
def manet():
    scenario = build_manet_scenario(node_count=16, liar_count=4, seed=23)
    scenario.warm_up(35.0)
    scenario.victim.detection_round()  # absorb convergence-era triggers
    results = []
    for _ in range(10):
        results.extend(scenario.run_detection_cycle(10.0))
    return scenario, results


def test_scenario_population(manet):
    scenario, _ = manet
    assert len(scenario.nodes) == 16
    assert len(scenario.liar_ids) == 4
    assert scenario.attacker_id not in scenario.liar_ids
    assert scenario.victim_id != scenario.attacker_id
    attacks = scenario.attack_scenario.attacks_by_node
    assert set(attacks) == scenario.liar_ids | {scenario.attacker_id}
    assert [type(attack) for attack in attacks[scenario.attacker_id]] == [LinkSpoofingAttack]
    assert scenario.attack_scenario.liars() == scenario.liar_ids


def test_only_the_victims_analyzer_subscription_is_logged(manet):
    scenario, _ = manet
    for node_id, node in scenario.nodes.items():
        if node_id != scenario.victim_id:
            assert len(node.log) == 0, node_id
    victim = scenario.victim
    logged = {record.category for record in victim.log}
    core = {LogCategory.MESSAGE_RX, LogCategory.NEIGHBOR, LogCategory.LINK, LogCategory.MPR}
    assert core <= logged <= victim.analyzer.categories


def test_victim_is_attacker_neighbor(manet):
    scenario, _ = manet
    assert scenario.attacker_id in scenario.victim.router.symmetric_neighbors()


def test_olsr_converged_before_attack(manet):
    scenario, _ = manet
    # The victim and attacker sit in the connected core and must know routes
    # to most of the network (random placement can leave a few stragglers on
    # the fringe, so we do not require full convergence of every node).
    assert len(scenario.victim.router.routing_table) >= 8
    assert len(scenario.attacker.router.routing_table) >= 5
    reachable_counts = [len(n.router.routing_table) for n in scenario.nodes.values()]
    assert sum(reachable_counts) / len(reachable_counts) >= 5


def test_attacker_is_investigated(manet):
    scenario, results = manet
    suspects = {r.suspect for r in results}
    assert scenario.attacker_id in suspects


def test_detection_trends_negative_despite_liars(manet):
    scenario, results = manet
    trajectory = [r.decision.detect_value for r in results
                  if r.suspect == scenario.attacker_id]
    assert trajectory, "attacker never investigated"
    assert trajectory[-1] < -0.5
    assert trajectory[-1] <= trajectory[0]


def test_attacker_trust_drops_below_honest_nodes(manet):
    scenario, results = manet
    victim = scenario.victim
    attacker_trust = victim.trust.trust_of(scenario.attacker_id)
    assert attacker_trust < 0.1
    honest = [
        nid for nid in scenario.nodes
        if nid not in scenario.liar_ids
        and nid not in (scenario.attacker_id, scenario.victim_id)
    ]
    mean_honest = sum(victim.trust.trust_of(n) for n in honest) / len(honest)
    assert mean_honest > attacker_trust + 0.2


def test_responding_liars_lose_trust(manet):
    scenario, results = manet
    victim = scenario.victim
    attacker_rounds = [r for r in results if r.suspect == scenario.attacker_id]
    queried = set()
    for r in attacker_rounds:
        queried |= set(r.answers)
    responding_liars = queried & scenario.liar_ids
    for liar in responding_liars:
        assert victim.trust.trust_of(liar) < 0.2


def test_build_validation():
    with pytest.raises(ValueError):
        build_manet_scenario(node_count=3)
    with pytest.raises(ValueError):
        build_manet_scenario(node_count=8, liar_count=7)


def test_same_seed_builds_identical_liar_rngs():
    """Regression: liar RNGs were seeded with the process-salted ``hash()``,
    so liar behaviour differed between interpreter runs.  With the stable
    CRC32 digest, two builds with the same seed draw identical sequences.
    """
    def liar_draws(scenario):
        draws = {}
        for liar_id in sorted(scenario.liar_ids):
            attacks = scenario.attack_scenario.attacks_by_node[liar_id]
            liar = next(a for a in attacks if isinstance(a, LiarBehavior))
            draws[liar_id] = [liar.rng.random() for _ in range(16)]
        return draws

    first = build_manet_scenario(node_count=12, liar_count=3, seed=23)
    second = build_manet_scenario(node_count=12, liar_count=3, seed=23)
    assert first.liar_ids == second.liar_ids
    assert liar_draws(first) == liar_draws(second)


def test_liar_rng_seeds_use_stable_seed():
    """Liar RNGs derive via ``stable_seed`` — fixed constants, no hash salt,
    and no modulus cap that could collide two liars on one stream."""
    from repro.seeding import stable_seed

    scenario = build_manet_scenario(node_count=12, liar_count=3, seed=23)
    for liar_id in scenario.liar_ids:
        attacks = scenario.attack_scenario.attacks_by_node[liar_id]
        liar = next(a for a in attacks if isinstance(a, LiarBehavior))
        expected = random.Random(stable_seed(23, f"liar:{liar_id}"))
        assert liar.rng.random() == expected.random()


def test_build_manet_scenario_campaign_axes():
    """The campaign axes (variant, loss model, mobility) build working scenarios."""
    from repro.core.signatures import LinkSpoofingVariant

    phantom = build_manet_scenario(
        node_count=8, liar_count=1, seed=5,
        attack_variant=LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR)
    attack = phantom.attack_scenario.attacks_by_node[phantom.attacker_id][0]
    assert attack.variant == LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR
    assert all(target.startswith("phantom") for target in attack.target_addresses)

    omitted = build_manet_scenario(
        node_count=8, liar_count=1, seed=5,
        attack_variant=LinkSpoofingVariant.OMITTED_NEIGHBOR)
    attack = omitted.attack_scenario.attacks_by_node[omitted.attacker_id][0]
    assert attack.variant == LinkSpoofingVariant.OMITTED_NEIGHBOR

    mobile = build_manet_scenario(node_count=8, liar_count=1, seed=5, max_speed=4.0,
                                  loss_model="distance", loss_probability=0.6)
    from repro.netsim.medium import DistanceLossModel
    from repro.netsim.mobility import RandomWaypointMobility
    assert isinstance(mobile.network.medium.loss_model, DistanceLossModel)
    assert isinstance(mobile.network.mobility, RandomWaypointMobility)
    mobile.warm_up(5.0)  # moves nodes; must not crash the spatial index
    assert mobile.network.medium.stats.frames_sent > 0

    with pytest.raises(ValueError):
        build_manet_scenario(node_count=8, loss_model="gaussian")
