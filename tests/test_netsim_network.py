"""Tests for the Network container and NetworkInterface wiring."""

from __future__ import annotations

import pytest

from repro.netsim.network import Network
from repro.netsim.packet import BROADCAST_ADDRESS
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


def test_broadcast_frame_metadata_passed_through():
    network = make_network({"a": (0, 0), "b": (100, 0)})
    seen = []
    network.interfaces["b"].bind(lambda frame, now: seen.append(frame.metadata))
    network.interfaces["a"].broadcast("payload", tag="probe")
    network.run()
    assert seen == [{"tag": "probe"}]


def test_broadcast_frame_is_broadcast_addressed():
    network = make_network({"a": (0, 0)})
    frame = network.interfaces["a"].broadcast("x")
    assert frame.destination == BROADCAST_ADDRESS
    assert frame.is_broadcast


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
