"""Tests for the Network container, its address index and NetworkInterface wiring."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.backends import (
    build_netsim_scenario,
    drive_netsim_scenario,
    scenario_config_from_params,
)
from repro.netsim.network import AddressIndex, Network
from repro.netsim.trace import TraceRecorder
from tests.conftest import make_network


def test_add_nodes_creates_interfaces_and_positions():
    network = make_network({"a": (0, 0), "b": (100, 0)})
    assert set(network.interfaces) == {"a", "b"}
    assert network.positions["a"] == (0, 0)


def test_position_of_unknown_node_raises():
    network = make_network({"a": (0, 0)})
    with pytest.raises(KeyError):
        network.positions["ghost"]
    with pytest.raises(KeyError):
        network.neighbors_of("ghost")


def test_duplicate_node_creation_rejected():
    network = make_network({"a": (0, 0)})
    with pytest.raises(ValueError):
        network.create_interface("a")


def test_writing_a_position_moves_the_node():
    network = make_network({"a": (0, 0), "b": (600, 0)})
    assert network.neighbors_of("a") == []
    network.positions["b"] = (100, 0)
    assert network.neighbors_of("a") == ["b"]


def test_broadcast_and_receive_through_interfaces():
    network = make_network({"a": (0, 0), "b": (100, 0)})
    received = []
    network.interfaces["b"].bind(lambda frame, now: received.append(frame.payload))
    network.interfaces["a"].broadcast("hello")
    network.run()
    assert received == ["hello"]


def test_node_ids_sorted():
    network = make_network({"z": (0, 0), "a": (10, 0), "m": (20, 0)})
    assert network.node_ids() == ["a", "m", "z"]


def test_now_tracks_simulator_clock():
    network = make_network({"a": (0, 0)})
    network.run(until=4.0)
    assert network.now == 4.0


def test_default_network_constructs_with_defaults():
    network = Network()
    network.add_nodes(["a", "b", "c", "d"])
    assert len(network.positions) == 4


@pytest.mark.parametrize("traced", [False, True], ids=["batched", "per_receiver"])
def test_node_arriving_while_a_frame_is_in_the_air(traced):
    # One event delivers the frame: to every receiver at once, or receiver
    # by receiver (each recorded) while a trace recorder is installed.  A
    # node that arrives while the frame is in the air is not among its
    # receivers; every receiver resolved at send time gets it.
    network = make_network({"a": (0, 0), "b": (100, 0)})
    if traced:
        network.medium.trace_recorder = TraceRecorder()
    received = []
    network.interfaces["b"].bind(lambda frame, now: received.append(("b", frame.payload)))
    network.interfaces["a"].broadcast("in the air")
    network.create_interface("c", (50, 0)).bind(
        lambda frame, now: received.append(("c", frame.payload)))
    network.run()
    assert received == [("b", "in the air")]
    assert network.medium.stats.frames_delivered == 1
    network.interfaces["a"].broadcast("after")
    network.run()
    assert received[1:] == [("b", "after"), ("c", "after")]
    assert network.medium.stats.frames_delivered == 3
    assert network.medium.stats.frames_unroutable == 0
    if traced:
        assert len(network.medium.trace_recorder.by_category("medium")) == 3


# ------------------------------------------------------------- address index
def test_address_index_assigns_a_bit_on_first_sight():
    index = AddressIndex()
    assert index.bit("b") == 1 and index.bit("a") == 2 and index.bit("b") == 1
    assert index.mask(["a", "c"]) == 0b110
    assert set(index.bits) == {"a", "b", "c"}
    # Decoding sorts names: nothing follows the order bits were assigned in.
    assert index.addresses(0b111) == ["a", "b", "c"]
    assert index.addresses(0) == []


#: A mobile cell whose attacker declares phantom neighbours
#: (``phantom{seed}-{i}``) from ``attack_start`` on.
_PHANTOM_CELL = {"total_nodes": 16, "area_size": 500.0, "liar_fraction": 0.1,
                 "attack_variant": "non_existent_neighbor",
                 "mobility_model": "gauss-markov", "max_speed": 8.0,
                 "warmup": 12.0, "attack_start": 13.0, "cycles": 2,
                 "cycle_length": 5.0}


def _drive_phantom_cell(seed: int):
    """Drive the cell at ``seed``; its network's index addresses and the
    digest of what perfbench digests for a netsim cell."""
    config = scenario_config_from_params(_PHANTOM_CELL, seed)
    scenario = build_netsim_scenario(config, _PHANTOM_CELL)
    result = drive_netsim_scenario(scenario, config, _PHANTOM_CELL)
    stats = scenario.network.medium.stats
    payload = {
        "rounds": [dataclasses.asdict(record) for record in result.rounds],
        "decisions": [(d.suspect, d.detect_value, str(d.outcome), d.interval.margin)
                      for d in scenario.victim.decision_history],
        "events": result.stats["events_processed"],
        "frames": [stats.frames_sent, stats.frames_delivered, stats.frames_lost],
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return (set(scenario.network.address_index.bits),
            hashlib.sha256(text.encode()).hexdigest())


def test_each_network_indexes_only_its_own_addresses():
    """Two phantom-spoofing cells on different seeds, run one after the
    other in both orders, give the same digests, and each network's index
    holds its node ids and its own phantoms only."""
    seeds = (3, 4)
    first = {seed: _drive_phantom_cell(seed) for seed in seeds}
    second = {seed: _drive_phantom_cell(seed) for seed in reversed(seeds)}
    node_ids = {f"n{i:02d}" for i in range(_PHANTOM_CELL["total_nodes"])}
    for seed in seeds:
        assert first[seed][1] == second[seed][1]
        addresses = first[seed][0]
        assert addresses == second[seed][0]
        phantoms = addresses - node_ids
        assert node_ids <= addresses
        assert phantoms and all(p.startswith(f"phantom{seed}-") for p in phantoms)
