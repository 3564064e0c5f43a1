"""Tests for MID/HNA support: association sets and node integration."""

from __future__ import annotations

from repro.logs.records import LogCategory
from repro.olsr.association import HnaAssociationSet, InterfaceAssociationSet
from repro.olsr.node import OlsrConfig, OlsrNode
from tests.conftest import CHAIN_POSITIONS, make_network


# ------------------------------------------------------------- association sets
def test_interface_association_mapping_and_expiry():
    associations = InterfaceAssociationSet()
    changed = associations.process_mid("main", ["ifaceA", "ifaceB"], now=0.0, hold_time=10.0)
    assert changed
    assert associations.main_address_of("ifaceA") == "main"
    assert associations.main_address_of("unknown") == "unknown"
    assert associations.interfaces_of("main") == {"ifaceA", "ifaceB"}
    assert len(associations) == 2
    expired = associations.purge_expired(20.0)
    assert len(expired) == 2
    assert associations.main_address_of("ifaceA") == "ifaceA"


def test_interface_association_skips_main_address_and_detects_no_change():
    associations = InterfaceAssociationSet()
    associations.process_mid("main", ["main", "ifaceA"], now=0.0, hold_time=10.0)
    assert associations.interfaces_of("main") == {"ifaceA"}
    changed = associations.process_mid("main", ["ifaceA"], now=1.0, hold_time=10.0)
    assert not changed  # refresh only


def test_hna_association_set_gateways_and_networks():
    hna = HnaAssociationSet()
    hna.process_hna("gw1", [("10.0.0.0", "255.0.0.0")], now=0.0, hold_time=10.0)
    hna.process_hna("gw2", [("10.0.0.0", "255.0.0.0"), ("192.168.0.0", "255.255.0.0")],
                    now=0.0, hold_time=10.0)
    assert hna.gateways_for("10.0.0.0") == {"gw1", "gw2"}
    assert ("192.168.0.0", "255.255.0.0") in hna.networks()
    assert hna.announcements_of("gw1") == {("10.0.0.0", "255.0.0.0")}
    assert len(hna) == 3


def test_hna_best_gateway_prefers_closest():
    hna = HnaAssociationSet()
    hna.process_hna("far", [("10.0.0.0", "255.0.0.0")], now=0.0, hold_time=10.0)
    hna.process_hna("near", [("10.0.0.0", "255.0.0.0")], now=0.0, hold_time=10.0)
    distances = {"far": 4, "near": 1}
    assert hna.best_gateway("10.0.0.0", distances.get) == "near"
    assert hna.best_gateway("unknown", distances.get) is None
    # Unreachable gateways are skipped entirely.
    assert hna.best_gateway("10.0.0.0", {"far": None, "near": None}.get) is None


def test_hna_purge_expired():
    hna = HnaAssociationSet()
    hna.process_hna("gw", [("10.0.0.0", "255.0.0.0")], now=0.0, hold_time=5.0)
    assert len(hna.purge_expired(10.0)) == 1
    assert hna.networks() == set()


# ----------------------------------------------------------- node integration
def build_mid_hna_chain():
    network = make_network(CHAIN_POSITIONS)
    nodes = {}
    for node_id in CHAIN_POSITIONS:
        if node_id == "D":
            config = OlsrConfig(
                extra_interface_addresses=("D-eth1", "D-eth2"),
                hna_networks=(("203.0.113.0", "255.255.255.0"),),
            )
        else:
            config = OlsrConfig()
        nodes[node_id] = OlsrNode(node_id, network, config=config, seed=3)
    for node in nodes.values():
        node.start()
    network.run(until=60.0)
    return network, nodes


def test_mid_floods_interface_associations_across_the_chain():
    network, nodes = build_mid_hna_chain()
    assert nodes["A"].interface_associations.main_address_of("D-eth1") == "D"
    assert nodes["A"].interface_associations.interfaces_of("D") == {"D-eth1", "D-eth2"}
    mid_tx = [r for r in nodes["D"].log.by_category(LogCategory.MESSAGE_TX)
              if r.event == "MID"]
    assert mid_tx


def test_hna_floods_external_routes_across_the_chain():
    network, nodes = build_mid_hna_chain()
    assert nodes["A"].hna_associations.gateways_for("203.0.113.0") == {"D"}
    # A routes traffic for the external network toward D via its next hop B.
    assert nodes["A"].external_route_for("203.0.113.0") == "B"
    assert nodes["A"].external_route_for("198.51.100.0") is None


def test_nodes_without_configuration_send_no_mid_or_hna():
    network, nodes = build_mid_hna_chain()
    for node_id in ("A", "B", "C"):
        assert not [r for r in nodes[node_id].log.by_category(LogCategory.MESSAGE_TX)
                    if r.event in ("MID", "HNA")]
