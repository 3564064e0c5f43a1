"""Tests for the routing-table calculation."""

from __future__ import annotations

from repro.netsim.network import AddressIndex
from repro.olsr.link_state import NeighborSet, NeighborTuple, TwoHopNeighborSet
from repro.olsr.routing import RouteEntry, RoutingTable, compute_routing_table
from repro.olsr.topology import TopologySet


def build_state(symmetric, two_hop_pairs, tc_edges):
    neighbors = NeighborSet()
    for address in symmetric:
        neighbors.upsert(NeighborTuple(address, symmetric=True))
    # The 2-hop set of "me", built as HELLOs build it: one refresh per
    # advertising neighbour.
    two_hop = TwoHopNeighborSet(AddressIndex(), "me")
    advertised = {}
    for via, dest in two_hop_pairs:
        advertised.setdefault(via, set()).add(dest)
    for via, dests in advertised.items():
        two_hop.refresh(via, two_hop.index.mask(dests), 1000.0)
    topology = TopologySet()
    for ansn, (last, dest) in enumerate(tc_edges, start=1):
        topology.process_tc(last, ansn=ansn, advertised={dest}, now=0.0, hold_time=1000.0)
    return neighbors, two_hop, topology


def test_one_hop_routes():
    neighbors, two_hop, topology = build_state({"a", "b"}, [], [])
    routes = compute_routing_table("me", neighbors, two_hop, topology)
    assert routes["a"] == RouteEntry("a", "a", 1)
    assert routes["b"].distance == 1


def test_two_hop_routes_via_advertising_neighbor():
    neighbors, two_hop, topology = build_state({"a"}, [("a", "x")], [])
    routes = compute_routing_table("me", neighbors, two_hop, topology)
    assert routes["x"] == RouteEntry("x", "a", 2)


def test_two_hop_route_requires_symmetric_intermediate():
    neighbors, two_hop, topology = build_state(set(), [("a", "x")], [])
    routes = compute_routing_table("me", neighbors, two_hop, topology)
    assert "x" not in routes


def test_three_hop_route_through_topology_set():
    # me - a - x - far  (x advertises far in its TC)
    neighbors, two_hop, topology = build_state({"a"}, [("a", "x")], [("x", "far")])
    routes = compute_routing_table("me", neighbors, two_hop, topology)
    assert routes["far"].next_hop == "a"
    assert routes["far"].distance == 3


def test_multi_hop_chain_route():
    # me - a - x - y - z
    neighbors, two_hop, topology = build_state(
        {"a"}, [("a", "x")], [("x", "y"), ("y", "z")]
    )
    routes = compute_routing_table("me", neighbors, two_hop, topology)
    assert routes["y"].distance == 3
    assert routes["z"].distance == 4
    assert routes["z"].next_hop == "a"


def test_shorter_route_preferred_over_topology_edge():
    # "x" is both a 2-hop neighbour and advertised in a TC far away; 2-hop wins.
    neighbors, two_hop, topology = build_state(
        {"a", "b"}, [("a", "x")], [("b", "x")]
    )
    routes = compute_routing_table("me", neighbors, two_hop, topology)
    assert routes["x"].distance == 2


def test_own_address_never_in_routes():
    neighbors, two_hop, topology = build_state({"a"}, [("a", "me")], [("a", "me")])
    routes = compute_routing_table("me", neighbors, two_hop, topology)
    assert "me" not in routes


def test_unreachable_topology_destination_excluded():
    # TC edge exists but its last hop is not reachable from us.
    neighbors, two_hop, topology = build_state({"a"}, [], [("stranger", "far")])
    routes = compute_routing_table("me", neighbors, two_hop, topology)
    assert "far" not in routes


def test_routing_table_replace_all_diff():
    table = RoutingTable()
    diff = table.replace_all({"a": RouteEntry("a", "a", 1)})
    assert diff.added == {"a"} and not diff.removed and not diff.changed
    diff = table.replace_all({"a": RouteEntry("a", "b", 2), "c": RouteEntry("c", "a", 1)})
    assert diff.changed == {"a"}
    assert diff.added == {"c"}
    diff = table.replace_all({})
    assert diff.removed == {"a", "c"}
    assert diff.is_empty is False
    assert len(table) == 0


def test_routing_table_queries():
    table = RoutingTable()
    table.replace_all({
        "a": RouteEntry("a", "a", 1),
        "x": RouteEntry("x", "a", 2),
    })
    assert table.next_hop("x") == "a"
    assert table.distance("x") == 2
    assert table.next_hop("ghost") is None
    assert table.distance("ghost") is None
    assert table.get("a").destination == "a"
    assert len(table) == 2
    entries = table.entries()
    assert [e.destination for e in entries] == ["a", "x"]  # sorted by distance


def test_routing_table_diff_empty_when_identical():
    table = RoutingTable()
    entries = {"a": RouteEntry("a", "a", 1)}
    table.replace_all(entries)
    diff = table.replace_all(dict(entries))
    assert diff.is_empty
