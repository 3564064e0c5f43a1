"""Shared pytest fixtures."""

from __future__ import annotations

import random

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.medium import UnitDiskPropagation, WirelessMedium
from repro.netsim.mobility import StaticPlacement
from repro.netsim.network import Network
from repro.olsr.node import OlsrNode


@pytest.fixture
def simulator() -> Simulator:
    """A fresh discrete-event simulator."""
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    """A seeded random generator for deterministic tests."""
    return random.Random(1234)


def make_network(positions, radio_range: float = 250.0, seed: int = 0,
                 loss_model=None) -> Network:
    """Build a network with static positions and a unit-disk medium."""
    simulator = Simulator()
    medium = WirelessMedium(
        simulator,
        propagation=UnitDiskPropagation(radio_range=radio_range),
        loss_model=loss_model,
    )
    network = Network(
        simulator=simulator,
        medium=medium,
        mobility=StaticPlacement(dict(positions)),
        seed=seed,
    )
    network.add_nodes(list(positions))
    return network


def make_olsr_network(positions, radio_range: float = 250.0, seed: int = 0):
    """Build a network plus one started OLSR node per position."""
    network = make_network(positions, radio_range=radio_range, seed=seed)
    nodes = {}
    for index, node_id in enumerate(positions):
        nodes[node_id] = OlsrNode(node_id, network, seed=seed + index)
    for node in nodes.values():
        node.start()
    return network, nodes


#: Chain topology A - B - C - D (each link 200 m, radio range 250 m).
CHAIN_POSITIONS = {
    "A": (0.0, 0.0),
    "B": (200.0, 0.0),
    "C": (400.0, 0.0),
    "D": (600.0, 0.0),
}

#: Star topology: HUB reaches everyone, leaves only reach the hub.
STAR_POSITIONS = {
    "HUB": (0.0, 0.0),
    "L1": (0.0, 200.0),
    "L2": (200.0, 0.0),
    "L3": (0.0, -200.0),
    "L4": (-200.0, 0.0),
}


@pytest.fixture
def chain_network():
    """A 4-node chain network with started OLSR nodes."""
    return make_olsr_network(CHAIN_POSITIONS)


@pytest.fixture
def star_network():
    """A 5-node star network with started OLSR nodes."""
    return make_olsr_network(STAR_POSITIONS)
