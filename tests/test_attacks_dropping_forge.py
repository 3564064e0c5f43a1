"""Tests for the drop attacks (blackhole, grayhole, selective filters)."""

from __future__ import annotations

import random

import pytest

from repro.attacks.dropping import BlackholeAttack, GrayholeAttack
from repro.logs.records import LogCategory
from tests.conftest import CHAIN_POSITIONS, make_olsr_network


def converged_chain():
    network, nodes = make_olsr_network(CHAIN_POSITIONS)
    network.run(until=30.0)
    return network, nodes


# ------------------------------------------------------------------ blackhole
def test_blackhole_stops_tc_relaying():
    network, nodes = converged_chain()
    # B relays A's and C's TC traffic (it is their MPR).  Install a blackhole.
    attack = BlackholeAttack()
    attack.install(nodes["B"])
    before = nodes["B"].stats.messages_forwarded
    network.run(until=network.now + 40.0)
    assert nodes["B"].stats.messages_forwarded == before
    assert attack.dropped_count > 0
    # The node logs the filtered forwards, which the detector can read (E2).
    drops = [r for r in nodes["B"].log.by_category(LogCategory.DROP)
             if r.get("reason") == "forward_filter"]
    assert drops


def test_blackhole_prevents_topology_propagation():
    network, nodes = converged_chain()
    BlackholeAttack().install(nodes["B"])
    BlackholeAttack().install(nodes["C"])
    network.run(until=network.now + 60.0)
    # With both relays black-holing, A cannot learn a route to D any more
    # once the old topology entries expire.
    assert nodes["A"].routing_table.get("D") is None


def test_blackhole_respects_schedule_deactivation():
    network, nodes = converged_chain()
    attack = BlackholeAttack()
    attack.install(nodes["B"])
    attack.deactivate()
    forwarded_before = nodes["B"].stats.messages_forwarded
    network.run(until=network.now + 30.0)
    assert nodes["B"].stats.messages_forwarded > forwarded_before
    assert attack.dropped_count == 0


# ------------------------------------------------------------------ grayhole
def test_grayhole_drop_probability_validated():
    with pytest.raises(ValueError):
        GrayholeAttack(drop_probability=1.5)


def test_grayhole_partial_dropping():
    network, nodes = converged_chain()
    attack = GrayholeAttack(drop_probability=0.5, rng=random.Random(3))
    attack.install(nodes["B"])
    forwarded_before = nodes["B"].stats.messages_forwarded
    network.run(until=network.now + 120.0)
    relayed = nodes["B"].stats.messages_forwarded - forwarded_before
    assert attack.dropped_count > 0
    assert relayed > 0
    ratio = attack.dropped_count / (attack.dropped_count + relayed)
    assert 0.2 < ratio < 0.8
