"""Integration tests for the OLSR node state machine on simulated networks."""

from __future__ import annotations

import pytest

from repro.logs.records import LogCategory
from repro.olsr.constants import Willingness
from repro.olsr.node import OlsrConfig, OlsrNode
from tests.conftest import CHAIN_POSITIONS, STAR_POSITIONS, make_network, make_olsr_network


CONVERGENCE_TIME = 30.0
#: A position beyond radio range of every node of the test topologies.
OUT_OF_RANGE = (0.0, 10_000.0)


def strict_two_hop(node):
    """Addresses two hops from ``node`` and not its symmetric neighbours."""
    one_hop = node.symmetric_neighbors()
    reached = {a for neighbor in one_hop for a in node.coverage_of(neighbor)}
    return reached - one_hop - {node.node_id}


def test_chain_neighbor_discovery(chain_network):
    network, nodes = chain_network
    network.run(until=CONVERGENCE_TIME)
    assert nodes["A"].symmetric_neighbors() == {"B"}
    assert nodes["B"].symmetric_neighbors() == {"A", "C"}
    assert nodes["C"].symmetric_neighbors() == {"B", "D"}
    assert nodes["D"].symmetric_neighbors() == {"C"}


def test_chain_two_hop_discovery(chain_network):
    network, nodes = chain_network
    network.run(until=CONVERGENCE_TIME)
    assert strict_two_hop(nodes["A"]) == {"C"}
    assert strict_two_hop(nodes["B"]) == {"D"}


def test_chain_mpr_selection(chain_network):
    network, nodes = chain_network
    network.run(until=CONVERGENCE_TIME)
    # A must select B (its only route to C); D must select C.
    assert nodes["A"].mpr_set == {"B"}
    assert nodes["D"].mpr_set == {"C"}
    # B and C learn they were selected.
    assert "A" in nodes["B"].mpr_selector_set.addresses()
    assert "D" in nodes["C"].mpr_selector_set.addresses()


def test_chain_full_routing_convergence(chain_network):
    network, nodes = chain_network
    network.run(until=60.0)
    for node_id, node in nodes.items():
        others = set(CHAIN_POSITIONS) - {node_id}
        destinations = {entry.destination for entry in node.routing_table}
        assert destinations >= others, (
            f"{node_id} is missing routes to {others - destinations}")
    assert nodes["A"].routing_table.distance("D") == 3
    assert nodes["A"].routing_table.next_hop("D") == "B"
    assert nodes["D"].routing_table.next_hop("A") == "C"


def test_star_hub_is_sole_mpr(star_network):
    network, nodes = star_network
    network.run(until=CONVERGENCE_TIME)
    for leaf in ("L1", "L2", "L3", "L4"):
        assert nodes[leaf].mpr_set == {"HUB"}
    assert nodes["HUB"].mpr_selector_set.addresses() == {"L1", "L2", "L3", "L4"}
    # The hub needs no MPR at all: every node is its 1-hop neighbour.
    assert nodes["HUB"].mpr_set == set()


def test_star_leaf_routes_via_hub(star_network):
    network, nodes = star_network
    network.run(until=60.0)
    assert nodes["L1"].routing_table.next_hop("L3") == "HUB"
    assert nodes["L1"].routing_table.distance("L3") == 2


def test_node_emits_audit_logs(chain_network):
    network, nodes = chain_network
    network.run(until=CONVERGENCE_TIME)
    log = nodes["A"].log
    categories = {record.category for record in log}
    assert LogCategory.MESSAGE_TX in categories
    assert LogCategory.MESSAGE_RX in categories
    assert LogCategory.LINK in categories
    assert LogCategory.NEIGHBOR in categories
    assert LogCategory.MPR in categories
    assert LogCategory.ROUTE in categories


def test_hello_logs_contain_advertised_neighbors(chain_network):
    network, nodes = chain_network
    network.run(until=CONVERGENCE_TIME)
    hello_rx = [r for r in nodes["A"].log.by_category(LogCategory.MESSAGE_RX)
                if r.event == "HELLO" and r.get("origin") == "B"]
    assert hello_rx, "A never logged a HELLO from B"
    last = hello_rx[-1]
    assert set(last.get_list("sym_neighbors")) == {"A", "C"}


def test_tc_flooding_reaches_far_nodes(chain_network):
    network, nodes = chain_network
    network.run(until=60.0)
    # D's TC messages must have reached A (through the MPR chain C, B).
    tc_from_d = [r for r in nodes["A"].log.by_category(LogCategory.MESSAGE_RX)
                 if r.event == "TC" and r.get("origin") in ("C", "D")]
    assert tc_from_d


def test_forwarding_only_by_mprs(star_network):
    network, nodes = star_network
    network.run(until=60.0)
    # Leaves are nobody's MPR, so they must never relay.
    for leaf in ("L1", "L2", "L3", "L4"):
        assert nodes[leaf].stats.messages_forwarded == 0
    # The hub is everyone's MPR; when leaves emit TC (they are MPRs of nobody
    # so they may not), at least the hub's own TCs exist.  Check the hub relays
    # nothing it should not, i.e. no relayed records without being selected.
    assert nodes["HUB"].mpr_selector_set.addresses() == {"L1", "L2", "L3", "L4"}


def test_link_expiry_after_node_failure(chain_network):
    network, nodes = chain_network
    network.run(until=CONVERGENCE_TIME)
    assert "D" in nodes["C"].symmetric_neighbors()
    network.positions["D"] = OUT_OF_RANGE
    network.run(until=CONVERGENCE_TIME + 30.0)
    assert "D" not in nodes["C"].symmetric_neighbors()
    assert nodes["C"].routing_table.get("D") is None
    # A eventually loses its route to D as well.
    assert nodes["A"].routing_table.get("D") is None


def test_node_restart_recovers_neighborhood(chain_network):
    network, nodes = chain_network
    network.run(until=CONVERGENCE_TIME)
    network.positions["B"] = OUT_OF_RANGE
    network.run(until=CONVERGENCE_TIME + 30.0)
    assert nodes["A"].symmetric_neighbors() == set()
    network.positions["B"] = CHAIN_POSITIONS["B"]
    network.run(until=CONVERGENCE_TIME + 70.0)
    assert nodes["A"].symmetric_neighbors() == {"B"}


def test_willingness_never_node_not_selected_as_mpr():
    positions = dict(CHAIN_POSITIONS)
    network = make_network(positions)
    config_never = OlsrConfig(willingness=Willingness.WILL_NEVER)
    nodes = {}
    for node_id in positions:
        config = config_never if node_id == "B" else None
        nodes[node_id] = OlsrNode(node_id, network, config=config, seed=1)
    for node in nodes.values():
        node.start()
    network.run(until=60.0)
    assert "B" not in nodes["A"].mpr_set


def test_stats_track_sent_and_received(chain_network):
    network, nodes = chain_network
    network.run(until=CONVERGENCE_TIME)
    stats = nodes["B"].stats
    assert stats.per_type_sent["HELLO"] >= 10
    assert stats.per_type_received["HELLO"] >= 10
    assert stats.messages_received >= stats.per_type_received["HELLO"]

