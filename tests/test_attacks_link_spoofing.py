"""Tests for the link-spoofing attack and the attack framework basics."""

from __future__ import annotations

import pytest

from repro.attacks.base import AttackSchedule
from repro.attacks.link_spoofing import LinkSpoofingAttack
from repro.core.signatures import LinkSpoofingVariant
from repro.olsr.node import OlsrNode
from tests.conftest import CHAIN_POSITIONS, STAR_POSITIONS, make_olsr_network


def converged_chain():
    network, nodes = make_olsr_network(CHAIN_POSITIONS)
    network.run(until=30.0)
    return network, nodes


def spoof(node, variant, targets):
    """Install a link-spoofing attack of ``variant`` on ``node``."""
    attack = LinkSpoofingAttack(variant, targets)
    attack.install(node)
    return attack


# ------------------------------------------------------------------ schedule
def test_attack_schedule_window():
    schedule = AttackSchedule(start_time=10.0)
    assert not schedule.is_active(5.0)
    assert schedule.is_active(10.0)
    assert schedule.is_active(1e9)


def test_manual_override_beats_schedule():
    attack = LinkSpoofingAttack(LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR, ["ghost"],
                                schedule=AttackSchedule(start_time=100.0))
    assert not attack.is_active(0.0)
    attack.activate()
    assert attack.is_active(0.0)
    attack.deactivate()
    assert not attack.is_active(1000.0)
    attack.follow_schedule()
    assert attack.is_active(150.0)


def test_attack_requires_targets():
    with pytest.raises(ValueError):
        LinkSpoofingAttack(LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR, [])


# --------------------------------------------------------------- variant 1/2
def test_spoofed_hello_contains_phantom_neighbor():
    network, nodes = converged_chain()
    attack = spoof(nodes["B"], LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR,
                   ["ghost1", "ghost2"])
    hello = nodes["B"].build_hello()
    for mutator in nodes["B"].hello_mutators:
        hello = mutator(hello, nodes["B"])
    assert {"ghost1", "ghost2"} <= hello.symmetric_neighbors()
    assert attack.installed_on == ["B"]


def test_spoofing_respects_schedule():
    network, nodes = converged_chain()
    attack = LinkSpoofingAttack(
        LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR, ["ghost"],
        schedule=AttackSchedule(start_time=network.now + 1000.0),
    )
    attack.install(nodes["B"])
    hello = nodes["B"].build_hello()
    for mutator in nodes["B"].hello_mutators:
        hello = mutator(hello, nodes["B"])
    assert "ghost" not in hello.symmetric_neighbors()


def test_spoofed_existing_link_propagates_to_victims_two_hop_set():
    network, nodes = converged_chain()
    # B falsely claims D (a real node, two hops away from it) as symmetric.
    spoof(nodes["B"], LinkSpoofingVariant.FALSE_EXISTING_LINK, ["D"])
    network.run(until=network.now + 20.0)
    # A now believes D is reachable through B (it is not).
    assert "D" in nodes["A"].two_hop_set.reachable_through("B")


def test_spoofed_phantom_becomes_visible_in_victim_topology():
    network, nodes = converged_chain()
    spoof(nodes["B"], LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR, ["phantom"])
    network.run(until=network.now + 20.0)
    assert "phantom" in nodes["A"].two_hop_set.reachable_through("B")


def test_spoofing_does_not_duplicate_existing_links():
    network, nodes = converged_chain()
    # A is already a genuine neighbour.
    spoof(nodes["B"], LinkSpoofingVariant.FALSE_EXISTING_LINK, ["A"])
    hello = nodes["B"].build_hello()
    for mutator in nodes["B"].hello_mutators:
        hello = mutator(hello, nodes["B"])
    addresses = [adv.neighbor_address for adv in hello.links]
    assert addresses.count("A") == 1


def test_spoofing_never_advertises_self():
    network, nodes = converged_chain()
    spoof(nodes["B"], LinkSpoofingVariant.FALSE_EXISTING_LINK, ["B"])
    hello = nodes["B"].build_hello()
    for mutator in nodes["B"].hello_mutators:
        hello = mutator(hello, nodes["B"])
    assert "B" not in hello.symmetric_neighbors()


# ------------------------------------------------------------------ variant 3
def test_omitted_neighbor_disappears_from_hello():
    network, nodes = converged_chain()
    spoof(nodes["B"], LinkSpoofingVariant.OMITTED_NEIGHBOR, ["C"])
    hello = nodes["B"].build_hello()
    for mutator in nodes["B"].hello_mutators:
        hello = mutator(hello, nodes["B"])
    assert "C" not in hello.all_addresses()
    assert "A" in hello.symmetric_neighbors()


def test_omission_eventually_breaks_symmetry_at_the_victim():
    network, nodes = converged_chain()
    spoof(nodes["B"], LinkSpoofingVariant.OMITTED_NEIGHBOR, ["C"])
    network.run(until=network.now + 30.0)
    # C no longer hears itself in B's HELLOs, so the link B-C cannot stay
    # symmetric from C's point of view.
    assert "B" not in nodes["C"].symmetric_neighbors()


# ------------------------------------------------------ what receivers see
#: The star of ``STAR_POSITIONS`` plus FAR, a leaf of L1 two hops from HUB.
_STAR_AND_FAR = dict(STAR_POSITIONS, FAR=(0.0, 420.0))


@pytest.mark.parametrize("variant, target", [
    (LinkSpoofingVariant.FALSE_EXISTING_LINK, "FAR"),
    (LinkSpoofingVariant.OMITTED_NEIGHBOR, "L2"),
])
def test_every_receiver_reads_the_forged_hello(variant, target):
    """Receivers read the sets a HELLO declares after its mutators ran.

    The false-link mutator reads the copied HELLO's addresses before it
    appends the spoofed link, so sets cached on that first read would
    reach the receivers without it.
    """
    network, nodes = make_olsr_network(_STAR_AND_FAR)
    network.run(until=30.0)
    assert "FAR" not in nodes["L3"].coverage_of("HUB")
    assert "L2" in nodes["L3"].coverage_of("HUB")
    LinkSpoofingAttack(variant, [target]).install(nodes["HUB"])
    network.run(until=50.0)
    for leaf in ("L1", "L2", "L3", "L4"):
        coverage = nodes[leaf].coverage_of("HUB")
        if variant == LinkSpoofingVariant.FALSE_EXISTING_LINK:
            assert "FAR" in coverage, leaf
        else:
            assert "L2" not in coverage, leaf
            assert leaf == "L2" or coverage == {"L1", "L3", "L4"} - {leaf}

