"""Tests for the wireless medium's spatial neighbour index.

The fast path must be an invisible optimisation: every query it serves
(neighbour sets, connectivity matrices, broadcast candidate selection) has to
match the brute-force all-interfaces scan exactly — under static placements,
after teleports via ``Network.set_position``, while a mobility model moves
nodes, and with per-sender ranges (``AsymmetricRangePropagation``).
"""

from __future__ import annotations

import random

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.medium import (
    AsymmetricRangePropagation,
    UnitDiskPropagation,
    WirelessMedium,
)
from repro.netsim.mobility import RandomWaypointMobility, UniformRandomPlacement
from repro.netsim.network import Network, PositionTable
from repro.netsim.packet import BROADCAST_ADDRESS, Frame


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, frame, now):
        self.received.append((frame, now))


def build_network(node_count=30, seed=3, radio_range=250.0, area=900.0,
                  propagation=None, mobility=None, use_spatial_index=True):
    simulator = Simulator()
    medium = WirelessMedium(
        simulator,
        propagation=propagation or UnitDiskPropagation(radio_range=radio_range),
        use_spatial_index=use_spatial_index,
    )
    network = Network(
        simulator=simulator,
        medium=medium,
        mobility=mobility or UniformRandomPlacement(width=area, height=area,
                                                    rng=random.Random(seed)),
        seed=seed,
    )
    node_ids = [f"n{i:02d}" for i in range(node_count)]
    network.add_nodes(node_ids)
    return network, node_ids


def assert_matches_brute_force(network, node_ids):
    """Fast-path answers must equal the brute-force scan, order included."""
    medium = network.medium
    assert medium._current_grid() is not None, "fast path unexpectedly disabled"
    for node_id in node_ids:
        fast = medium.neighbors_of(node_id)
        brute = medium._neighbors_brute_force(node_id)
        assert fast == brute, f"neighbour mismatch for {node_id}"


def test_static_placement_matches_brute_force():
    network, node_ids = build_network()
    assert_matches_brute_force(network, node_ids)
    matrix = network.medium.connectivity_matrix()
    for node_id in node_ids:
        assert matrix[node_id] == network.medium._neighbors_brute_force(node_id)


def test_teleport_via_set_position_invalidates_index():
    network, node_ids = build_network()
    before = network.medium.neighbors_of("n00")
    # Move n01 right next to n00 (and far from where it was).
    origin = network.position_of("n00")
    network.set_position("n01", (origin[0] + 1.0, origin[1] + 1.0))
    after = network.medium.neighbors_of("n00")
    assert "n01" in after
    assert after == network.medium._neighbors_brute_force("n00")
    # Move it out of everyone's range.
    network.set_position("n01", (1e6, 1e6))
    assert "n01" not in network.medium.neighbors_of("n00")
    assert_matches_brute_force(network, node_ids)
    assert before is not None  # silence linters; the point is no staleness


def test_mobile_placement_matches_brute_force_over_time():
    mobility = RandomWaypointMobility(width=600.0, height=600.0, min_speed=20.0,
                                      max_speed=60.0, pause_time=0.5,
                                      update_interval=0.5, rng=random.Random(9))
    network, node_ids = build_network(node_count=20, area=600.0, mobility=mobility)
    for _ in range(6):
        network.run(until=network.now + 2.0)
        assert_matches_brute_force(network, node_ids)


def test_asymmetric_per_sender_ranges_match_brute_force():
    propagation = AsymmetricRangePropagation(default_range=250.0)
    network, node_ids = build_network(node_count=24, propagation=propagation)
    # A mix of short- and long-range transmitters, including one whose range
    # exceeds the default (forces the grid cell size to grow).
    propagation.register("n00", 60.0)
    propagation.register("n01", 400.0)
    propagation.register("n02", 120.0)
    assert_matches_brute_force(network, node_ids)
    # Asymmetry really happens: the long-range node reaches someone who
    # cannot reach it back.
    far = set(network.medium.neighbors_of("n01")) - set(
        nid for nid in node_ids if "n01" in network.medium.neighbors_of(nid))
    # (may be empty on this layout; the contract is only equality with brute force)
    assert far is not None


def test_broadcast_delivery_identical_with_and_without_index():
    def flood(use_spatial_index):
        network, node_ids = build_network(use_spatial_index=use_spatial_index)
        medium = network.medium
        sinks = {}
        for node_id in node_ids:
            medium.unregister(node_id)
            sink = Sink()
            medium.register(node_id, sink)
            sinks[node_id] = sink
        for node_id in node_ids:
            medium.transmit(Frame(source=node_id, destination=BROADCAST_ADDRESS,
                                  payload=node_id))
        network.simulator.run()
        received = {
            nid: sorted(frame.source for frame, _ in sink.received)
            for nid, sink in sinks.items()
        }
        return received, medium.stats

    fast_received, fast_stats = flood(True)
    brute_received, brute_stats = flood(False)
    assert fast_received == brute_received
    assert fast_stats.frames_delivered == brute_stats.frames_delivered
    assert fast_stats.frames_out_of_range == brute_stats.frames_out_of_range
    assert fast_stats.frames_sent == brute_stats.frames_sent


def test_node_arrival_and_departure_invalidate_index():
    network, node_ids = build_network(node_count=10)
    network.medium.neighbors_of("n00")  # prime the cache
    interface = network.create_interface("late", network.position_of("n00"))
    assert interface is not None
    assert "late" in network.medium.neighbors_of("n00")
    network.remove_node("late")
    assert "late" not in network.medium.neighbors_of("n00")
    assert_matches_brute_force(network, node_ids)


def test_position_table_epoch_counts_mutations():
    table = PositionTable()
    assert table.epoch == 0
    table["a"] = (0.0, 0.0)
    table["b"] = (1.0, 1.0)
    assert table.epoch == 2
    table.update({"c": (2.0, 2.0)})
    assert table.epoch == 3
    table.pop("c")
    assert table.epoch == 4
    del table["b"]
    assert table.epoch == 5
    table.clear()
    assert table.epoch == 6


def test_bare_oracle_without_epoch_falls_back_to_brute_force():
    positions = {"a": (0.0, 0.0), "b": (100.0, 0.0)}
    medium = WirelessMedium(Simulator())
    medium.bind_position_oracle(lambda nid: positions[nid])
    medium.register("a", Sink())
    medium.register("b", Sink())
    assert medium._current_grid() is None
    assert medium.neighbors_of("a") == ["b"]
    # Direct dict mutation (no epoch to observe) must still be reflected.
    positions["b"] = (1e6, 1e6)
    assert medium.neighbors_of("a") == []


def test_unknown_propagation_model_falls_back_to_brute_force():
    class EverythingReaches:
        def in_range(self, sender, receiver):
            return True

    network, node_ids = build_network(propagation=EverythingReaches(), node_count=6)
    assert network.medium._current_grid() is None
    for node_id in node_ids:
        expected = [nid for nid in node_ids if nid != node_id]
        assert network.medium.neighbors_of(node_id) == expected


def test_neighbor_cache_not_mutable_by_callers():
    network, _ = build_network(node_count=8)
    first = network.medium.neighbors_of("n00")
    first.append("bogus")
    assert "bogus" not in network.medium.neighbors_of("n00")


def test_per_node_range_change_invalidates_cache():
    """Regression: shrinking one node's range after a query must not leave the
    old (larger-range) neighbour list in the per-epoch cache.
    """
    propagation = AsymmetricRangePropagation(default_range=250.0)
    network, node_ids = build_network(node_count=24, propagation=propagation)
    before = network.medium.neighbors_of("n00")
    propagation.register("n00", 1.0)  # nearly deaf transmitter now
    after = network.medium.neighbors_of("n00")
    assert after == network.medium._neighbors_brute_force("n00")
    assert after == []
    propagation.register("n00", 250.0)
    assert network.medium.neighbors_of("n00") == before
    assert_matches_brute_force(network, node_ids)


def test_aggregate_rows_preserve_numeric_group_keys():
    """Regression: aggregate keys must keep their type and numeric order."""
    from repro.experiments.report import aggregate_rows

    rows = [{"nodes": 16, "x": 1.0}, {"nodes": 8, "x": 2.0}, {"nodes": 8, "x": 4.0}]
    aggregated = aggregate_rows(rows, ("nodes",), ("x",))
    assert [row["nodes"] for row in aggregated] == [8, 16]
    assert aggregated[0]["x"] == 3.0


def test_distance_loss_zero_probability_is_lossless():
    """Regression: an explicit 'distance:0.0' axis must mean a lossless
    channel, not silently fall back to max_loss=0.8.
    """
    from repro.experiments.scenario import _build_loss_model

    model = _build_loss_model("distance", 0.0, radio_range=250.0, seed=1)
    assert model.max_loss == 0.0
    assert model.loss_probability(249.0) == 0.0


def brute_force_matrix(medium):
    return {nid: medium._neighbors_brute_force(nid) for nid in medium.node_ids}


def test_connectivity_matrix_is_shared_until_the_index_rebuilds():
    propagation = AsymmetricRangePropagation(default_range=250.0)
    network, _ = build_network(node_count=16, propagation=propagation)
    medium = network.medium
    matrix = medium.connectivity_matrix()
    assert matrix == brute_force_matrix(medium)
    medium.transmit(Frame(source="n00", destination=BROADCAST_ADDRESS, payload=None))
    network.simulator.run()
    assert medium.connectivity_matrix() is matrix  # nothing moved

    def rebuilt(previous):
        current = medium.connectivity_matrix()
        assert current is not previous
        assert current == brute_force_matrix(medium)
        assert medium.connectivity_matrix() is current
        return current

    origin = network.position_of("n00")
    network.set_position("n01", (origin[0] + 1.0, origin[1]))
    matrix = rebuilt(matrix)
    network.create_interface("late", origin)
    matrix = rebuilt(matrix)
    assert "late" in matrix["n00"]
    network.remove_node("late")
    matrix = rebuilt(matrix)
    assert "late" not in matrix
    propagation.register("n00", 40.0)
    rebuilt(matrix)


def test_brute_force_connectivity_matrix_is_fresh_per_call():
    network, _ = build_network(node_count=8, use_spatial_index=False)
    medium = network.medium
    first = medium.connectivity_matrix()
    assert first == brute_force_matrix(medium)
    assert medium.connectivity_matrix() is not first
