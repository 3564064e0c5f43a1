"""The OLSR node state machine.

:class:`OlsrNode` implements the RFC 3626 core: link sensing, neighbour
detection, MPR selection and signalling, TC flooding through MPRs, topology
discovery and routing-table calculation.  Every state transition of interest
is written to the node's :class:`repro.logs.store.LogStore`, because the
paper's detector works from those audit logs rather than from packets.  The
per-message sites ask the store first (``enabled_for``) and build no record
for a category nobody subscribed to.

:class:`OlsrNode` is the OLSR backend of the protocol-agnostic routing
layer: the network attachment, audit log, data plane and the generic attack
hooks (``forward_filters``, ``data_handlers``) live on
:class:`repro.routing.base.RoutingProtocol`; this module adds the
OLSR-specific ``hello_mutators``, which transform each HELLO right before
emission (link spoofing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.logs.records import LogCategory
from repro.logs.store import LogStore
from repro.olsr.constants import (
    DUP_HOLD_TIME,
    HELLO_INTERVAL,
    MAXJITTER,
    NEIGHB_HOLD_TIME,
    TC_INTERVAL,
    TOP_HOLD_TIME,
    LinkType,
    MessageType,
    NeighborType,
    Willingness,
)
from repro.olsr.association import HnaAssociationSet, InterfaceAssociationSet
from repro.olsr.duplicate import DuplicateSet
from repro.olsr.link_state import (
    LinkSet,
    LinkTuple,
    MprSelectorSet,
    MprSelectorTuple,
    NeighborSet,
    NeighborTuple,
    TwoHopNeighborSet,
    TwoHopTuple,
)
from repro.olsr.messages import (
    HelloMessage,
    HnaMessage,
    MidMessage,
    OlsrMessage,
    TcMessage,
)
from repro.olsr.mpr import select_mprs
from repro.olsr.packet import OlsrPacket
from repro.olsr.routing import RoutingTable, compute_routing_table
from repro.olsr.topology import TopologySet
from repro.routing.base import DataPacket, RoutingProtocol
from repro.routing.registry import register_protocol

HelloMutator = Callable[[HelloMessage, "OlsrNode"], HelloMessage]


@dataclass
class OlsrConfig:
    """Per-node protocol configuration (RFC defaults, all overridable)."""

    hello_interval: float = HELLO_INTERVAL
    tc_interval: float = TC_INTERVAL
    neighbor_hold_time: float = NEIGHB_HOLD_TIME
    topology_hold_time: float = TOP_HOLD_TIME
    duplicate_hold_time: float = DUP_HOLD_TIME
    willingness: Willingness = Willingness.WILL_DEFAULT
    emission_jitter: float = MAXJITTER
    start_delay_max: float = 1.0
    #: Emit TC messages even with an empty MPR-selector set (useful in tests).
    tc_when_no_selectors: bool = False
    #: Forwarding jitter applied before relaying flooded messages.
    forward_jitter: float = 0.1
    #: Additional interface addresses announced in MID messages (RFC §5).
    extra_interface_addresses: tuple = ()
    #: External networks announced in HNA messages, as (network, netmask)
    #: pairs (RFC §12); non-empty makes the node a gateway.
    hna_networks: tuple = ()


class OlsrNode(RoutingProtocol):
    """One OLSR router attached to a simulated network."""

    protocol_name = "olsr"

    def __init__(
        self,
        node_id: str,
        network,
        config: Optional[OlsrConfig] = None,
        log_store: Optional[LogStore] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, network, log_store=log_store, seed=seed)
        self.config = config if isinstance(config, OlsrConfig) else OlsrConfig()

        # Information repositories (RFC §4).
        self.link_set = LinkSet()
        self.neighbor_set = NeighborSet()
        self.two_hop_set = TwoHopNeighborSet()
        self.mpr_selector_set = MprSelectorSet()
        self.topology_set = TopologySet()
        self.duplicate_set = DuplicateSet(hold_time=self.config.duplicate_hold_time)
        self.interface_associations = InterfaceAssociationSet()
        self.hna_associations = HnaAssociationSet()
        self._routing_table = RoutingTable()
        self.mpr_set: Set[str] = set()
        self.ansn = 0

        # Recompute gates: fingerprints of the repository state the last
        # MPR/route computation ran against.  Steady-state HELLO refreshes
        # leave the structural versions (and the live symmetric set) alone,
        # so the per-message recompute collapses to a cheap key comparison
        # and the full RFC computations run once per actual topology change
        # instead of once per message.  Skipping is byte-identical: unchanged
        # inputs would reproduce the current result, which logs nothing.
        self._mpr_inputs_key: Optional[tuple] = None
        self._route_inputs_key: Optional[tuple] = None

        # OLSR-specific attack hook (generic ones live on the base class).
        self.hello_mutators: List[HelloMutator] = []

    # ------------------------------------------------------------------ life
    def start(self) -> None:
        """Begin periodic HELLO/TC emission and housekeeping."""
        if self._started:
            return
        self._started = True
        self.log.log(self.now, LogCategory.SYSTEM, "NODE_STARTED",
                     willingness=int(self.config.willingness))
        start_delay = self.rng.uniform(0.0, self.config.start_delay_max)
        self._schedule_periodic(
            self.config.hello_interval,
            self._emit_hello,
            start_delay=start_delay,
            jitter=self.config.emission_jitter,
            rng=self.rng,
        )
        self._schedule_periodic(
            self.config.tc_interval,
            self._emit_tc,
            start_delay=start_delay + self.config.hello_interval,
            jitter=self.config.emission_jitter,
            rng=self.rng,
        )
        if self.config.extra_interface_addresses:
            self._schedule_periodic(
                self.config.tc_interval,
                self._emit_mid,
                start_delay=start_delay + 0.5,
                jitter=self.config.emission_jitter,
                rng=self.rng,
            )
        if self.config.hna_networks:
            self._schedule_periodic(
                self.config.tc_interval,
                self._emit_hna,
                start_delay=start_delay + 1.0,
                jitter=self.config.emission_jitter,
                rng=self.rng,
            )
        self._schedule_periodic(
            self.config.hello_interval,
            self._housekeeping,
            start_delay=self.config.hello_interval,
        )

    # ----------------------------------------------------------- state views
    def symmetric_neighbors(self) -> Set[str]:
        """Current 1-hop symmetric neighbours (the paper's ``NS``)."""
        return self.link_set.symmetric_neighbors(self.now)

    def two_hop_neighbors(self) -> Set[str]:
        """Current strict 2-hop neighbourhood."""
        own = self.symmetric_neighbors()
        return {
            a for a in self.two_hop_set.two_hop_addresses()
            if a != self.node_id and a not in own
        }

    def coverage_of(self, neighbor: str) -> Set[str]:
        """2-hop addresses reachable through ``neighbor`` according to its HELLOs."""
        return self.two_hop_set.reachable_through(neighbor)

    def providers_of(self, two_hop_address: str) -> Set[str]:
        """1-hop neighbours claiming to reach ``two_hop_address``."""
        return self.two_hop_set.providers_of(two_hop_address)

    def is_mpr_selector(self, address: str) -> bool:
        """Whether ``address`` has selected this node as MPR."""
        return self.mpr_selector_set.contains(address)

    def peer_advertises(self, peer: str, address: str) -> bool:
        """Whether ``peer``'s HELLOs advertise ``address`` as its neighbour."""
        return address in self.two_hop_set.reachable_through(peer)

    @property
    def routing_table(self) -> RoutingTable:
        """Proactive routing table, refreshed lazily on read.

        The table is a pure function of the neighbour/2-hop/topology
        repositories, so recomputing at read time yields exactly the table an
        eager per-message recomputation would have produced at the same
        instant.  Reads between structural changes cost one version-key
        comparison; the expensive calculation runs once per batch of
        topology changes instead of once per received message — the
        difference between quadratic and cubic total routing work during
        convergence of a 1,024-node flood.
        """
        self._recompute_routes()
        return self._routing_table

    def next_hop(self, destination: str) -> Optional[str]:
        """Next hop toward ``destination`` from the proactive routing table."""
        return self.routing_table.next_hop(destination)

    def route_distance(self, destination: str) -> Optional[int]:
        """Hop count toward ``destination``, if routed."""
        return self.routing_table.distance(destination)

    def known_destinations(self) -> Set[str]:
        """Destinations present in the routing table."""
        return set(self.routing_table.destinations())

    # ------------------------------------------------------------- emission
    def _emit_hello(self) -> None:
        if not self._started:
            return
        hello = self.build_hello()
        for mutator in self.hello_mutators:
            hello = mutator(hello, self)
        message = OlsrMessage(
            originator=self.node_id,
            body=hello,
            vtime=self.config.neighbor_hold_time,
            ttl=1,
        )
        packet = OlsrPacket.bundle(self.node_id, [message])
        self.interface.broadcast(packet, size_bytes=packet.size_bytes())
        self.stats.record_sent("HELLO")
        if self.log.enabled_for(LogCategory.MESSAGE_TX):
            self.log.log(
                self.now,
                LogCategory.MESSAGE_TX,
                "HELLO",
                seq=message.message_seq_number,
                sym_neighbors=hello.symmetric_neighbors(),
                asym_neighbors=hello.asymmetric_neighbors(),
                mprs=hello.mpr_neighbors(),
                willingness=int(hello.willingness),
            )

    def build_hello(self) -> HelloMessage:
        """Build the HELLO describing the current local link state."""
        now = self.now
        hello = HelloMessage(willingness=self.config.willingness,
                             htime=self.config.hello_interval)
        for link in self.link_set:
            if link.is_expired(now):
                continue
            address = link.neighbor_address
            if link.is_symmetric(now):
                neighbor_type = (
                    NeighborType.MPR_NEIGH if address in self.mpr_set else NeighborType.SYM_NEIGH
                )
                hello.add_link(address, LinkType.SYM_LINK, neighbor_type)
            elif link.is_asymmetric(now):
                hello.add_link(address, LinkType.ASYM_LINK, NeighborType.NOT_NEIGH)
            else:
                hello.add_link(address, LinkType.LOST_LINK, NeighborType.NOT_NEIGH)
        return hello

    def _emit_tc(self) -> None:
        if not self._started:
            return
        selectors = self.mpr_selector_set.addresses()
        if not selectors and not self.config.tc_when_no_selectors:
            return
        tc = TcMessage(ansn=self.ansn, advertised_neighbors=set(selectors))
        message = OlsrMessage(
            originator=self.node_id,
            body=tc,
            vtime=self.config.topology_hold_time,
        )
        packet = OlsrPacket.bundle(self.node_id, [message])
        self.interface.broadcast(packet, size_bytes=packet.size_bytes())
        self.stats.record_sent("TC")
        if self.log.enabled_for(LogCategory.MESSAGE_TX):
            self.log.log(
                self.now,
                LogCategory.MESSAGE_TX,
                "TC",
                seq=message.message_seq_number,
                ansn=tc.ansn,
                advertised=tc.advertised_neighbors,
            )

    def _emit_mid(self) -> None:
        if not self._started:
            return
        mid = MidMessage(interface_addresses=list(self.config.extra_interface_addresses))
        message = OlsrMessage(originator=self.node_id, body=mid,
                              vtime=3 * self.config.tc_interval)
        packet = OlsrPacket.bundle(self.node_id, [message])
        self.interface.broadcast(packet, size_bytes=packet.size_bytes())
        self.stats.record_sent("MID")
        self.log.log(self.now, LogCategory.MESSAGE_TX, "MID",
                     seq=message.message_seq_number,
                     interfaces=mid.interface_addresses)

    def _emit_hna(self) -> None:
        if not self._started:
            return
        hna = HnaMessage(networks=list(self.config.hna_networks))
        message = OlsrMessage(originator=self.node_id, body=hna,
                              vtime=3 * self.config.tc_interval)
        packet = OlsrPacket.bundle(self.node_id, [message])
        self.interface.broadcast(packet, size_bytes=packet.size_bytes())
        self.stats.record_sent("HNA")
        self.log.log(self.now, LogCategory.MESSAGE_TX, "HNA",
                     seq=message.message_seq_number,
                     networks=[f"{net}/{mask}" for net, mask in hna.networks])

    # -------------------------------------------------------------- reception
    def handle_control(self, payload: object, last_hop: str) -> None:
        """Unpack an OLSR packet and process the bundled messages."""
        if isinstance(payload, OlsrPacket):
            for message in payload:
                self._on_message(message, last_hop)

    def _on_message(self, message: OlsrMessage, last_hop: str) -> None:
        if message.originator == self.node_id:
            return  # our own flooded message came back
        message_type = str(message.message_type)
        self.stats.record_received(message_type)

        duplicate = self.duplicate_set.seen(message.originator, message.message_seq_number)
        # Checked before the record's fields are built: on a node whose log
        # nobody reads, the RX trail costs one set lookup per message.
        log_rx = self.log.enabled_for(LogCategory.MESSAGE_RX)
        if message.message_type == MessageType.HELLO:
            if log_rx:
                self._log_hello_rx(message, last_hop)
            self.process_hello(message, last_hop)
            return

        # Flooded message types (TC / MID / HNA).
        if log_rx:
            self._log_flooded_rx(message, last_hop)
        if not duplicate:
            if message.message_type == MessageType.TC:
                self.process_tc(message, last_hop)
            elif message.message_type == MessageType.MID:
                self.process_mid(message, last_hop)
            elif message.message_type == MessageType.HNA:
                self.process_hna(message, last_hop)
        else:
            self.stats.duplicates_suppressed += 1
            if self.log.enabled_for(LogCategory.DUPLICATE):
                self.log.log(self.now, LogCategory.DUPLICATE, "DUPLICATE_DETECTED",
                             origin=message.originator, seq=message.message_seq_number)
        self.duplicate_set.record(
            message.originator, message.message_seq_number, self.now, last_hop
        )
        self._consider_forwarding(message, last_hop)

    def _log_hello_rx(self, message: OlsrMessage, last_hop: str) -> None:
        hello: HelloMessage = message.body
        self.log.log(
            self.now,
            LogCategory.MESSAGE_RX,
            "HELLO",
            origin=message.originator,
            last_hop=last_hop,
            seq=message.message_seq_number,
            sym_neighbors=hello.symmetric_neighbors(),
            asym_neighbors=hello.asymmetric_neighbors(),
            mprs=hello.mpr_neighbors(),
            willingness=int(hello.willingness),
        )

    def _log_flooded_rx(self, message: OlsrMessage, last_hop: str) -> None:
        fields = {
            "origin": message.originator,
            "last_hop": last_hop,
            "seq": message.message_seq_number,
            "ttl": message.ttl,
            "hops": message.hop_count,
        }
        if message.message_type == MessageType.TC:
            tc: TcMessage = message.body
            fields["ansn"] = tc.ansn
            fields["advertised"] = tc.advertised_neighbors
        self.log.log(self.now, LogCategory.MESSAGE_RX, str(message.message_type), **fields)

    # ------------------------------------------------------ HELLO processing
    def process_hello(self, message: OlsrMessage, last_hop: str) -> None:
        """Link sensing, neighbour detection, 2-hop population, MPR signalling."""
        hello: HelloMessage = message.body
        origin = message.originator
        now = self.now
        hold = message.vtime if message.vtime > 0 else self.config.neighbor_hold_time

        link = self.link_set.get(origin)
        created = link is None
        if link is None:
            link = LinkTuple(local_address=self.node_id, neighbor_address=origin)
        was_symmetric = link.is_symmetric(now)

        link.asym_time = now + hold
        heard_us = self.node_id in hello.all_addresses()
        declared_lost = self.node_id in hello.lost_neighbors()
        if heard_us and not declared_lost:
            link.sym_time = now + hold
        elif declared_lost:
            link.sym_time = -1.0
        link.expiry_time = max(link.asym_time, link.sym_time) + hold
        self.link_set.upsert(link)

        if created:
            self.log.log(now, LogCategory.LINK, "LINK_ADDED", neighbor=origin)
        now_symmetric = link.is_symmetric(now)
        if now_symmetric and not was_symmetric:
            self.log.log(now, LogCategory.LINK, "LINK_SYM", neighbor=origin)
        elif not now_symmetric and was_symmetric:
            self.log.log(now, LogCategory.LINK, "LINK_ASYM", neighbor=origin)

        # Neighbour set.
        neighbor = self.neighbor_set.get(origin)
        if neighbor is None:
            neighbor = NeighborTuple(neighbor_address=origin)
            self.neighbor_set.upsert(neighbor)
            self.log.log(now, LogCategory.NEIGHBOR, "NEIGHBOR_ADDED", neighbor=origin)
        previous_symmetric = neighbor.symmetric
        if neighbor.symmetric != now_symmetric:
            neighbor.symmetric = now_symmetric
            self.neighbor_set.touch()
        if neighbor.willingness != hello.willingness:
            neighbor.willingness = hello.willingness
            self.neighbor_set.touch()
        if neighbor.symmetric and not previous_symmetric:
            self.log.log(now, LogCategory.NEIGHBOR, "NEIGHBOR_SYM", neighbor=origin)
        elif not neighbor.symmetric and previous_symmetric:
            self.log.log(now, LogCategory.NEIGHBOR, "NEIGHBOR_NOT_SYM", neighbor=origin)

        # 2-hop neighbour set: only populated through symmetric neighbours.
        if now_symmetric:
            advertised = hello.symmetric_neighbors()
            previous_coverage = self.two_hop_set.reachable_through(origin)
            for address in advertised:
                if address == self.node_id:
                    continue
                self.two_hop_set.upsert(
                    TwoHopTuple(neighbor_address=origin, two_hop_address=address,
                                expiry_time=now + hold)
                )
                if address not in previous_coverage:
                    self.log.log(now, LogCategory.TWO_HOP, "TWO_HOP_ADDED",
                                 neighbor=origin, two_hop=address)
            for address in previous_coverage - advertised:
                self.two_hop_set.remove(origin, address)
                self.log.log(now, LogCategory.TWO_HOP, "TWO_HOP_REMOVED",
                             neighbor=origin, two_hop=address)

        # MPR selector set: the neighbour declares us with MPR neighbour type.
        if self.node_id in hello.mpr_neighbors():
            if not self.mpr_selector_set.contains(origin):
                self.log.log(now, LogCategory.MPR_SELECTOR, "SELECTOR_ADDED", selector=origin)
                self.ansn += 1
            self.mpr_selector_set.upsert(
                MprSelectorTuple(selector_address=origin, expiry_time=now + hold)
            )
        elif self.mpr_selector_set.contains(origin):
            self.mpr_selector_set.remove(origin)
            self.ansn += 1
            self.log.log(now, LogCategory.MPR_SELECTOR, "SELECTOR_REMOVED", selector=origin)

        self._recompute_mprs()

    # --------------------------------------------------------- TC processing
    def process_tc(self, message: OlsrMessage, last_hop: str) -> None:
        """Topology-set maintenance from a TC message."""
        if not self.link_set.is_symmetric_with(last_hop, self.now):
            # RFC §9.5: discard TC messages not received from a symmetric neighbour.
            self.log.log(self.now, LogCategory.DROP, "FILTERED",
                         origin=message.originator, reason="tc_from_non_sym", last_hop=last_hop)
            return
        tc: TcMessage = message.body
        hold = message.vtime if message.vtime > 0 else self.config.topology_hold_time
        changed = self.topology_set.process_tc(
            originator=message.originator,
            ansn=tc.ansn,
            advertised=set(tc.advertised_neighbors),
            now=self.now,
            hold_time=hold,
        )
        if changed and self.log.enabled_for(LogCategory.TOPOLOGY):
            self.log.log(self.now, LogCategory.TOPOLOGY, "TOPOLOGY_UPDATED",
                         origin=message.originator, ansn=tc.ansn,
                         advertised=tc.advertised_neighbors)

    def process_mid(self, message: OlsrMessage, last_hop: str) -> None:
        """Interface-association maintenance from a MID message (RFC §5.4)."""
        if not self.link_set.is_symmetric_with(last_hop, self.now):
            self.log.log(self.now, LogCategory.DROP, "FILTERED",
                         origin=message.originator, reason="mid_from_non_sym",
                         last_hop=last_hop)
            return
        mid: MidMessage = message.body
        hold = message.vtime if message.vtime > 0 else self.config.topology_hold_time
        changed = self.interface_associations.process_mid(
            main_address=message.originator,
            interface_addresses=list(mid.interface_addresses),
            now=self.now,
            hold_time=hold,
        )
        if changed:
            self.log.log(self.now, LogCategory.TOPOLOGY, "TOPOLOGY_UPDATED",
                         origin=message.originator, kind="mid",
                         interfaces=mid.interface_addresses)

    def process_hna(self, message: OlsrMessage, last_hop: str) -> None:
        """External-route maintenance from an HNA message (RFC §12.5)."""
        if not self.link_set.is_symmetric_with(last_hop, self.now):
            self.log.log(self.now, LogCategory.DROP, "FILTERED",
                         origin=message.originator, reason="hna_from_non_sym",
                         last_hop=last_hop)
            return
        hna: HnaMessage = message.body
        hold = message.vtime if message.vtime > 0 else self.config.topology_hold_time
        changed = self.hna_associations.process_hna(
            gateway_address=message.originator,
            networks=list(hna.networks),
            now=self.now,
            hold_time=hold,
        )
        if changed:
            self.log.log(self.now, LogCategory.TOPOLOGY, "TOPOLOGY_UPDATED",
                         origin=message.originator, kind="hna",
                         networks=[f"{net}/{mask}" for net, mask in hna.networks])

    def external_route_for(self, network: str) -> Optional[str]:
        """Next hop toward an external ``network`` announced via HNA.

        The closest announcing gateway (by hop count) is chosen and the packet
        is routed toward it; returns ``None`` when no reachable gateway
        announces the network.
        """
        gateway = self.hna_associations.best_gateway(network, self.routing_table.distance)
        if gateway is None:
            return None
        return self.routing_table.next_hop(gateway)

    # -------------------------------------------------------------- forwarding
    def _consider_forwarding(self, message: OlsrMessage, last_hop: str) -> None:
        """RFC §3.4 default forwarding algorithm (MPR flooding)."""
        if message.ttl <= 1:
            if self.log.enabled_for(LogCategory.DROP):
                self.log.log(self.now, LogCategory.DROP, "TTL_EXPIRED",
                             origin=message.originator, seq=message.message_seq_number)
            return
        if not self.link_set.is_symmetric_with(last_hop, self.now):
            return
        if self.duplicate_set.already_forwarded(message.originator, message.message_seq_number):
            return
        if not self.mpr_selector_set.contains(last_hop):
            # We are not an MPR of the last hop: do not retransmit.
            if self.log.enabled_for(LogCategory.FORWARD):
                self.log.log(self.now, LogCategory.FORWARD, "NOT_RELAYED",
                             origin=message.originator, seq=message.message_seq_number,
                             reason="not_mpr_of_last_hop", last_hop=last_hop)
            return
        for forward_filter in self.forward_filters:
            if not forward_filter(message, last_hop, self):
                self.stats.messages_dropped += 1
                self.log.log(self.now, LogCategory.DROP, "FILTERED",
                             origin=message.originator, seq=message.message_seq_number,
                             reason="forward_filter", last_hop=last_hop)
                return
        self.duplicate_set.mark_forwarded(message.originator, message.message_seq_number)
        forwarded = message.forwarded_copy()
        delay = self.rng.uniform(0.0, self.config.forward_jitter)
        self.simulator.post(delay, self._transmit_forward, forwarded)
        self.stats.messages_forwarded += 1
        if self.log.enabled_for(LogCategory.FORWARD):
            self.log.log(self.now, LogCategory.FORWARD, "RELAYED",
                         origin=message.originator, seq=message.message_seq_number,
                         ttl=forwarded.ttl, last_hop=last_hop)

    def _transmit_forward(self, message: OlsrMessage) -> None:
        packet = OlsrPacket.bundle(self.node_id, [message])
        self.interface.broadcast(packet, size_bytes=packet.size_bytes())

    # -------------------------------------------------------------- data plane
    def _data_filter_probe(self, packet: DataPacket) -> OlsrMessage:
        """Drop attacks inspect data relays through a TC-shaped pseudo-message."""
        return OlsrMessage(originator=packet.source, body=TcMessage(ansn=0))

    # ------------------------------------------------------------ maintenance
    def _housekeeping(self) -> None:
        now = self.now
        expired_links = self.link_set.purge_expired(now)
        for link in expired_links:
            self.log.log(now, LogCategory.LINK, "LINK_EXPIRED", neighbor=link.neighbor_address)
            self.neighbor_set.remove(link.neighbor_address)
            self.two_hop_set.remove_for_neighbor(link.neighbor_address)
            self.log.log(now, LogCategory.NEIGHBOR, "NEIGHBOR_REMOVED",
                         neighbor=link.neighbor_address)
        for record in self.two_hop_set.purge_expired(now):
            self.log.log(now, LogCategory.TWO_HOP, "TWO_HOP_REMOVED",
                         neighbor=record.neighbor_address, two_hop=record.two_hop_address)
        for record in self.mpr_selector_set.purge_expired(now):
            self.ansn += 1
            self.log.log(now, LogCategory.MPR_SELECTOR, "SELECTOR_REMOVED",
                         selector=record.selector_address)
        self.topology_set.purge_expired(now)
        self.duplicate_set.purge_expired(now)
        self.interface_associations.purge_expired(now)
        self.hna_associations.purge_expired(now)
        # Symmetric status can silently expire; refresh neighbour tuples.
        symmetric = self.link_set.symmetric_neighbors(now)
        for neighbor in self.neighbor_set:
            was = neighbor.symmetric
            still = neighbor.neighbor_address in symmetric
            if was != still:
                neighbor.symmetric = still
                self.neighbor_set.touch()
            if was and not still:
                self.log.log(now, LogCategory.NEIGHBOR, "NEIGHBOR_NOT_SYM",
                             neighbor=neighbor.neighbor_address)
        if expired_links:
            self._recompute_mprs()
        # Routes refresh lazily on read (see ``routing_table``); this periodic
        # call coalesces the topology churn of a whole HELLO interval into at
        # most one recomputation, keeping the audit log's ROUTE trail alive
        # even in runs that never consult the table.
        self._recompute_routes()

    def _recompute_mprs(self) -> None:
        now = self.now
        # The live symmetric set is time-dependent (links expire silently),
        # so it is part of the gate key alongside the structural versions.
        symmetric = self.link_set.symmetric_neighbors(now)
        inputs_key = (self.neighbor_set.version, self.two_hop_set.version,
                      frozenset(symmetric))
        if inputs_key == self._mpr_inputs_key:
            return
        willingness = {n.neighbor_address: n.willingness for n in self.neighbor_set}
        coverage = self.two_hop_set.coverage_map()
        result = select_mprs(
            symmetric_neighbors=symmetric,
            coverage=coverage,
            willingness=willingness,
            local_address=self.node_id,
        )
        new_set = result.mprs
        if new_set != self.mpr_set:
            added = new_set - self.mpr_set
            removed = self.mpr_set - new_set
            for address in sorted(added):
                self.log.log(now, LogCategory.MPR, "MPR_SELECTED", mpr=address,
                             covered=result.coverage.get(address, set()))
            for address in sorted(removed):
                self.log.log(now, LogCategory.MPR, "MPR_REMOVED", mpr=address)
            self.log.log(now, LogCategory.MPR, "MPR_SET_CHANGED",
                         mprs=new_set, previous=self.mpr_set)
            self.mpr_set = new_set
        self._mpr_inputs_key = inputs_key

    def _recompute_routes(self) -> None:
        # The routing computation reads only stored symmetric flags and the
        # 2-hop/topology key sets — all covered by the structural versions.
        inputs_key = (self.neighbor_set.version, self.two_hop_set.version,
                      self.topology_set.version)
        if inputs_key == self._route_inputs_key:
            return
        entries = compute_routing_table(
            local_address=self.node_id,
            neighbor_set=self.neighbor_set,
            two_hop_set=self.two_hop_set,
            topology_set=self.topology_set,
        )
        diff = self._routing_table.replace_all(entries)
        if not diff.is_empty:
            self.log.log(self.now, LogCategory.ROUTE, "TABLE_RECOMPUTED",
                         added=diff.added, removed=diff.removed,
                         changed=diff.changed, size=len(entries))
        self._route_inputs_key = inputs_key

    # ---------------------------------------------------------------- helpers
    def describe(self) -> Dict[str, object]:
        """Summary of the node's protocol state (used by examples/reports)."""
        return {
            "node": self.node_id,
            "protocol": self.protocol_name,
            "symmetric_neighbors": sorted(self.symmetric_neighbors()),
            "two_hop_neighbors": sorted(self.two_hop_neighbors()),
            "mprs": sorted(self.mpr_set),
            "mpr_selectors": sorted(self.mpr_selector_set.addresses()),
            "routes": len(self.routing_table),
        }


def _build_olsr(node_id, network, config=None, log_store=None, seed=None):
    return OlsrNode(node_id, network, config=config,
                    log_store=log_store, seed=seed)


register_protocol(
    "olsr",
    _build_olsr,
    "OLSR (RFC 3626): proactive link-state routing with MPR flooding "
    "(the paper's protocol)",
)
