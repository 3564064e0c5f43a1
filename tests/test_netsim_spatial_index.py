"""Tests for the wireless medium's spatial neighbour index.

The grid must be an invisible optimisation: every query it serves
(neighbour sets, connectivity matrices, broadcast receivers) has to match
the all-pairs scan kept in ``tests/reference/`` exactly — under static
placements, after teleports (a write to ``Network.positions``), while a
mobility model moves nodes, and as nodes arrive.
"""

from __future__ import annotations

import random

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.medium import UnitDiskPropagation, WirelessMedium
from repro.netsim.mobility import RandomWaypointMobility, UniformRandomPlacement
from repro.netsim.network import Network, PositionTable
from repro.netsim.packet import BROADCAST_ADDRESS, Frame
from tests.reference import PerReceiverMedium, scan_connectivity, scan_neighbors


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, frame, now):
        self.received.append((frame, now))


def build_network(node_count=30, seed=3, radio_range=250.0, area=900.0,
                  mobility=None):
    simulator = Simulator()
    medium = WirelessMedium(
        simulator,
        propagation=UnitDiskPropagation(radio_range=radio_range),
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


def scanned(network, node_id):
    """The reference scan's neighbours of ``node_id``."""
    medium = network.medium
    return scan_neighbors(medium.node_ids, network.positions, medium.propagation,
                          node_id)


def assert_matches_brute_force(network, node_ids):
    """Grid answers must equal the all-pairs scan, order included."""
    for node_id in node_ids:
        assert network.medium.neighbors_of(node_id) == scanned(network, node_id), (
            f"neighbour mismatch for {node_id}")


def test_static_placement_matches_brute_force():
    network, node_ids = build_network()
    assert_matches_brute_force(network, node_ids)
    matrix = network.medium.connectivity_matrix()
    for node_id in node_ids:
        assert matrix[node_id] == scanned(network, node_id)


def test_teleport_invalidates_index():
    network, node_ids = build_network()
    before = network.medium.neighbors_of("n00")
    # Move n01 right next to n00 (and far from where it was).
    origin = network.positions["n00"]
    network.positions["n01"] = (origin[0] + 1.0, origin[1] + 1.0)
    after = network.medium.neighbors_of("n00")
    assert "n01" in after
    assert after == scanned(network, "n00")
    # Move it out of everyone's range.
    network.positions["n01"] = (1e6, 1e6)
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


def test_broadcast_delivery_identical_with_and_without_index():
    node_ids = [f"n{i:02d}" for i in range(30)]
    placement = UniformRandomPlacement(width=900.0, height=900.0, rng=random.Random(3))
    layout = placement.place(node_ids)

    def flood(medium_cls):
        simulator = Simulator()
        medium = medium_cls(simulator, propagation=UnitDiskPropagation(radio_range=250.0))
        medium.bind_positions(PositionTable(layout))
        sinks = {}
        for node_id in node_ids:
            sink = Sink()
            medium.register(node_id, sink)
            sinks[node_id] = sink
        for node_id in node_ids:
            medium.transmit(Frame(source=node_id, destination=BROADCAST_ADDRESS,
                                  payload=node_id))
        simulator.run()
        received = {
            nid: [frame.source for frame, _ in sink.received]
            for nid, sink in sinks.items()
        }
        return received, medium.stats

    fast_received, fast_stats = flood(WirelessMedium)
    scan_received, scan_stats = flood(PerReceiverMedium)
    assert fast_received == scan_received
    assert fast_stats == scan_stats


def test_node_arrival_invalidates_index():
    network, node_ids = build_network(node_count=10)
    network.medium.neighbors_of("n00")  # prime the cache
    interface = network.create_interface("late", network.positions["n00"])
    assert interface is not None
    assert "late" in network.medium.neighbors_of("n00")
    assert_matches_brute_force(network, node_ids + ["late"])


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


def test_a_medium_without_an_epoch_source_raises():
    medium = WirelessMedium(Simulator())
    medium.register("a", Sink())
    with pytest.raises(RuntimeError):  # nothing bound yet
        medium.neighbors_of("a")
    with pytest.raises(RuntimeError):
        medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload=None))
    with pytest.raises(TypeError):  # a mapping without an epoch
        medium.bind_positions({"a": (0.0, 0.0)})
    medium.bind_positions(PositionTable({"a": (0.0, 0.0)}))
    assert medium.neighbors_of("a") == []


def test_a_propagation_model_without_a_radio_range_is_rejected():
    class EverythingReaches:
        def in_range(self, sender, receiver):
            return True

    for model in (EverythingReaches(), UnitDiskPropagation(radio_range=float("inf")),
                  UnitDiskPropagation(radio_range=0.0)):
        with pytest.raises(ValueError):
            WirelessMedium(Simulator(), propagation=model)


def test_neighbor_cache_not_mutable_by_callers():
    network, _ = build_network(node_count=8)
    first = network.medium.neighbors_of("n00")
    first.append("bogus")
    assert "bogus" not in network.medium.neighbors_of("n00")


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


def test_connectivity_matrix_is_shared_until_the_index_rebuilds():
    network, _ = build_network(node_count=16)
    medium = network.medium

    def brute_force_matrix():
        return scan_connectivity(medium.node_ids, network.positions, medium.propagation)

    matrix = medium.connectivity_matrix()
    assert matrix == brute_force_matrix()
    medium.transmit(Frame(source="n00", destination=BROADCAST_ADDRESS, payload=None))
    network.simulator.run()
    assert medium.connectivity_matrix() is matrix  # nothing moved

    def rebuilt(previous):
        current = medium.connectivity_matrix()
        assert current is not previous
        assert current == brute_force_matrix()
        assert medium.connectivity_matrix() is current
        return current

    origin = network.positions["n00"]
    network.positions["n01"] = (origin[0] + 1.0, origin[1])
    matrix = rebuilt(matrix)
    network.create_interface("late", origin)
    matrix = rebuilt(matrix)
    assert "late" in matrix["n00"]
    medium.propagation = UnitDiskPropagation(radio_range=120.0)
    rebuilt(matrix)
