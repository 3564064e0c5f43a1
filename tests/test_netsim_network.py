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
    assert network.position_of("a") == (0, 0)


def test_position_of_unknown_node_raises():
    network = make_network({"a": (0, 0)})
    with pytest.raises(KeyError):
        network.position_of("ghost")


def test_duplicate_node_creation_rejected():
    network = make_network({"a": (0, 0)})
    with pytest.raises(ValueError):
        network.create_interface("a")


def test_set_position_moves_node():
    network = make_network({"a": (0, 0), "b": (600, 0)})
    assert network.neighbors_of("a") == []
    network.set_position("b", (100, 0))
    assert network.neighbors_of("a") == ["b"]


def test_set_position_unknown_node_raises():
    network = make_network({"a": (0, 0)})
    with pytest.raises(KeyError):
        network.set_position("ghost", (0, 0))


def test_broadcast_and_receive_through_interfaces():
    network = make_network({"a": (0, 0), "b": (100, 0)})
    received = []
    network.interfaces["b"].bind(lambda frame, now: received.append(frame.payload))
    network.interfaces["a"].broadcast("hello")
    network.run()
    assert received == ["hello"]


def test_unicast_through_interface():
    network = make_network({"a": (0, 0), "b": (100, 0), "c": (150, 0)})
    got_b, got_c = [], []
    network.interfaces["b"].bind(lambda frame, now: got_b.append(frame.payload))
    network.interfaces["c"].bind(lambda frame, now: got_c.append(frame.payload))
    frame = network.interfaces["a"].unicast("b", "direct")
    network.run()
    assert got_b == ["direct"]
    assert got_c == []
    assert frame.destination == "b"


def test_interface_down_blocks_send_and_receive():
    network = make_network({"a": (0, 0), "b": (100, 0)})
    received = []
    network.interfaces["b"].bind(lambda frame, now: received.append(frame.payload))
    network.fail_node("b")
    network.interfaces["a"].broadcast("lost")
    network.run()
    assert received == []
    network.recover_node("b")
    network.interfaces["a"].broadcast("found")
    network.run()
    assert received == ["found"]


def test_fail_node_blocks_outgoing_traffic_too():
    network = make_network({"a": (0, 0), "b": (100, 0)})
    received = []
    network.interfaces["b"].bind(lambda frame, now: received.append(frame.payload))
    network.fail_node("a")
    network.interfaces["a"].broadcast("nothing")
    network.run()
    assert received == []


def test_remove_node_detaches_everything():
    network = make_network({"a": (0, 0), "b": (100, 0)})
    network.attach_node("b", object())
    network.remove_node("b")
    assert "b" not in network.interfaces
    assert "b" not in network.positions
    assert "b" not in network.nodes
    assert network.neighbors_of("a") == []


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
def test_receiver_failing_while_a_frame_is_in_the_air(traced):
    # One event delivers the frame: to every receiver at once, or receiver
    # by receiver (each looked up by id and recorded) while a trace
    # recorder is installed.  Either way the medium still counts the frame
    # delivered, and the down interface drops it.
    network = make_network({"a": (0, 0), "b": (100, 0)})
    if traced:
        network.medium.trace_recorder = TraceRecorder()
    received = []
    network.interfaces["b"].bind(lambda frame, now: received.append(frame.payload))
    network.interfaces["a"].broadcast("in the air")
    network.fail_node("b")
    network.run()
    assert received == []
    assert network.medium.stats.frames_delivered == 1
    # Re-binding while the interface is down stays silent.
    network.interfaces["b"].bind(
        lambda frame, now: received.append(("rebound", frame.payload)))
    network.interfaces["a"].broadcast("still down")
    network.run()
    assert received == []
    network.recover_node("b")
    network.interfaces["a"].broadcast("back up")
    network.run()
    assert received == [("rebound", "back up")]
    assert network.medium.stats.frames_delivered == 3
    if traced:
        assert len(network.medium.trace_recorder.by_category("medium")) == 3
