"""The OLSR node state machine.

:class:`OlsrNode` implements the RFC 3626 core: link sensing, neighbour
detection, MPR selection and signalling, TC flooding through MPRs, topology
discovery and routing-table calculation.  Every state transition of interest
is written to the node's :class:`repro.logs.store.LogStore`, because the
paper's detector works from those audit logs rather than from packets.  The
per-message sites test the store's ``recorded`` categories first and build
no record for a category nobody subscribed to.

Control-plane state is computed when something reads it.  Routes are
computed on a ``routing_table`` read, and at housekeeping only while the
store records ``ROUTE``.  MPR selection runs at every input change on a
node whose store records ``MPR``; elsewhere it is deferred to the next
``mpr_set`` read (HELLO emission) or housekeeping, on the inputs of the
change that triggered it (see :attr:`OlsrNode.mpr_set`).

A received HELLO costs each receiver only the work that depends on that
receiver.  The sender computes the HELLO's declared sets once, after its
``hello_mutators`` ran (:meth:`HelloMessage.declare`), and every receiver
and log site reads them.  Known 2-hop and MPR-selector tuples are refreshed
in place, and the 2-hop withdrawals are walked only when the neighbour's
tuple count says some address was withdrawn.

:class:`OlsrNode` is the package's one router.  Besides the protocol state
it owns the node's attachment to the simulated network (it binds the
interface and handles every received frame), the audit log, a
deterministic per-node RNG, transmission statistics and the two attack
hooks: ``forward_filters`` veto the relaying of a flooded message
(blackhole/grayhole) and ``hello_mutators`` transform each HELLO right
before emission (link spoofing).

A frame crosses the node's boundary with the medium in one call each way.
The interface's ``receive`` is :meth:`OlsrNode.handle_control` itself, and
each emission builds its one-message packet and size in place and hands the
frame to ``WirelessMedium.transmit`` through ``NetworkInterface.broadcast``.
``handle_control`` and ``transmit`` are the per-frame entry points a tracer
may wrap on the class: a node binds ``handle_control`` when it is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Set

from repro.logs.records import LogCategory
from repro.logs.store import LogStore
from repro.netsim.packet import Frame
from repro.netsim.stats import NodeStatistics
from repro.olsr.constants import (
    DUP_HOLD_TIME,
    HELLO_INTERVAL,
    MAXJITTER,
    MESSAGE_HEADER_SIZE,
    NEIGHB_HOLD_TIME,
    PACKET_HEADER_SIZE,
    TC_INTERVAL,
    TOP_HOLD_TIME,
    LinkType,
    MessageType,
    NeighborType,
    Willingness,
)
from repro.olsr.duplicate import DuplicateSet
from repro.olsr.link_state import (
    LinkSet,
    LinkTuple,
    MprSelectorSet,
    NeighborSet,
    NeighborTuple,
    TwoHopNeighborSet,
)
from repro.olsr.messages import DeclaredSets, HelloMessage, OlsrMessage, TcMessage
from repro.olsr.mpr import select_mprs
from repro.olsr.packet import OlsrPacket
from repro.olsr.routing import RoutingTable, compute_routing_table
from repro.olsr.topology import TopologySet
from repro.seeding import stable_digest

HelloMutator = Callable[[HelloMessage, "OlsrNode"], HelloMessage]

# Enum members are looked up through the metaclass on every class-attribute
# access; the receive path compares against these by identity instead.
_HELLO = MessageType.HELLO
_TC = MessageType.TC
_MESSAGE_RX = LogCategory.MESSAGE_RX
_DUPLICATE = LogCategory.DUPLICATE
_DROP = LogCategory.DROP
_FORWARD = LogCategory.FORWARD

#: On-air size of a one-message packet, less its message body.
_HEADERS_SIZE = PACKET_HEADER_SIZE + MESSAGE_HEADER_SIZE


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


class OlsrNode:
    """One OLSR router attached to a simulated network."""

    def __init__(
        self,
        node_id: str,
        network,
        config: Optional[OlsrConfig] = None,
        log_store: Optional[LogStore] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.simulator = network.simulator
        self.log = log_store if log_store is not None else LogStore(node_id)
        self.rng = random.Random(seed if seed is not None else stable_digest(node_id) & 0xFFFF)
        self.stats = NodeStatistics()
        self.config = config or OlsrConfig()

        # Information repositories (RFC §4).
        self.link_set = LinkSet()
        self.neighbor_set = NeighborSet()
        self.two_hop_set = TwoHopNeighborSet()
        self.mpr_selector_set = MprSelectorSet()
        self.topology_set = TopologySet()
        self.duplicate_set = DuplicateSet(hold_time=self.config.duplicate_hold_time)
        self._routing_table = RoutingTable()
        self._mpr_set: Set[str] = set()
        self.ansn = 0

        # Recompute gates: fingerprints of the repository state the last
        # MPR/route computation ran against.  Steady-state HELLO refreshes
        # leave the structural versions (and the live symmetric set) alone,
        # so the per-message recompute collapses to a cheap key comparison
        # and the full RFC computations run once per actual topology change
        # instead of once per message.  Skipping is byte-identical: unchanged
        # inputs would reproduce the current result, which logs nothing.
        # Passing a gate does not mean computing: routes wait for a reader
        # (``routing_table``) and so does an unrecorded MPR selection, which
        # keeps the symmetric set of its trigger in ``_pending_mpr_symmetric``
        # until ``mpr_set`` is read (None: nothing pending).
        self._mpr_inputs_key: Optional[tuple] = None
        self._route_inputs_key: Optional[tuple] = None
        self._pending_mpr_symmetric: Optional[Set[str]] = None

        # Attack hooks: each forward filter may veto a relay; each HELLO
        # mutator rewrites the HELLO about to be sent.
        self.forward_filters: List[Callable] = []
        self.hello_mutators: List[HelloMutator] = []

        self._started = False
        #: Periodic-chain handles registered via :meth:`_schedule_periodic`;
        #: cancelled wholesale by :meth:`stop`.
        self._periodic_handles: List = []
        self.interface = network.interfaces.get(node_id)
        if self.interface is None:
            self.interface = network.create_interface(node_id)
        # Looked up on the class now, so a wrapper installed there beforehand
        # sees every delivery.
        self.interface.bind(self.handle_control)
        network.attach_node(node_id, self)

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
        self._schedule_periodic(
            self.config.hello_interval,
            self._housekeeping,
            start_delay=self.config.hello_interval,
        )

    def stop(self) -> None:
        """Stop the node: cancel its periodic timers and go silent.

        The interface stays registered (frames still reach
        :meth:`handle_control`) but all control-traffic and housekeeping
        chains registered through :meth:`_schedule_periodic` are cancelled,
        so a stopped node leaves no live events behind in the engine.
        """
        self._started = False
        for handle in self._periodic_handles:
            handle.cancel()
        self._periodic_handles.clear()
        self.log.log(self.now, LogCategory.SYSTEM, "NODE_STOPPED")

    def _schedule_periodic(self, interval: float, callback: Callable, *args,
                           **kwargs):
        """Register a periodic chain owned by this node's lifecycle.

        Thin wrapper over ``simulator.schedule_periodic`` that records the
        handle so :meth:`stop` can cancel the chain.
        """
        handle = self.simulator.schedule_periodic(interval, callback, *args,
                                                  **kwargs)
        self._periodic_handles.append(handle)
        return handle

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.simulator.now

    # ----------------------------------------------------------- state views
    def symmetric_neighbors(self) -> Set[str]:
        """Current 1-hop symmetric neighbours (the paper's ``NS``)."""
        return self.link_set.symmetric_neighbors(self.now)

    def coverage_of(self, neighbor: str) -> Set[str]:
        """2-hop addresses reachable through ``neighbor`` according to its HELLOs."""
        return self.two_hop_set.reachable_through(neighbor)

    def providers_of(self, two_hop_address: str) -> Set[str]:
        """1-hop neighbours claiming to reach ``two_hop_address``."""
        return self.two_hop_set.providers_of(two_hop_address)

    def peer_advertises(self, peer: str, address: str) -> bool:
        """Whether ``peer``'s HELLOs advertise ``address`` as its neighbour."""
        return address in self.two_hop_set.reachable_through(peer)

    @property
    def routing_table(self) -> RoutingTable:
        """Proactive routing table, computed on read.

        The table is a pure function of the neighbour/2-hop/topology
        repositories, so recomputing at read time yields exactly the table an
        eager per-message recomputation would have produced at the same
        instant.  Reads between structural changes cost one version-key
        comparison.  Nothing else computes routes unless the store records
        ``ROUTE``: housekeeping then recomputes once per HELLO interval to
        keep that trail.  A store that starts recording ``ROUTE`` mid-run sees
        its first ``TABLE_RECOMPUTED`` diffed against the last table
        computed, whenever that was.
        """
        self._recompute_routes()
        return self._routing_table

    @property
    def mpr_set(self) -> Set[str]:
        """The current MPR set (RFC 3626 §8.3.1); read-only.

        Only HELLO emission reads it, so a node whose store does not record
        ``MPR`` defers the selection to this read.  Three rules keep the
        deferred result, and every audit trail, identical to an eager
        selection at each trigger (the end of ``process_hello``,
        housekeeping with expired links):

        1. The trigger keeps the symmetric set it computed for its gate key
           and the selection runs on it: links lapse silently, so
           ``symmetric_neighbors`` at read time may already differ.
        2. Housekeeping purges 2-hop tuples and flips symmetric flags
           without reselecting, so it runs a pending selection first, on
           the inputs of its trigger.
        3. A deferred selection writes no ``MPR`` record.  If the store
           starts recording ``MPR`` while one is pending, the next HELLO
           runs it, silently, before changing any repository, so the first
           recorded selection diffs against the right set.

        A store that records ``MPR`` (the victim's, a bare ``LogStore``)
        selects eagerly at each trigger and logs every change.
        """
        self._settle_mprs()
        return self._mpr_set

    # ------------------------------------------------------------- emission
    def _emit_hello(self) -> None:
        if not self._started:
            return
        hello = self.build_hello()
        for mutator in self.hello_mutators:
            hello = mutator(hello, self)
        declared = hello.declare()
        message = OlsrMessage(
            originator=self.node_id,
            body=hello,
            vtime=self.config.neighbor_hold_time,
            ttl=1,
        )
        self.interface.broadcast(OlsrPacket(self.node_id, [message]),
                                 _HEADERS_SIZE + hello.size_bytes())
        self.stats.record_sent(_HELLO)
        if LogCategory.MESSAGE_TX in self.log.recorded:
            self.log.log(
                self.now,
                LogCategory.MESSAGE_TX,
                "HELLO",
                seq=message.message_seq_number,
                sym_neighbors=declared.symmetric,
                asym_neighbors=declared.asymmetric,
                mprs=declared.mprs,
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
        self.interface.broadcast(OlsrPacket(self.node_id, [message]),
                                 _HEADERS_SIZE + tc.size_bytes())
        self.stats.record_sent(_TC)
        if LogCategory.MESSAGE_TX in self.log.recorded:
            self.log.log(
                self.now,
                LogCategory.MESSAGE_TX,
                "TC",
                seq=message.message_seq_number,
                ansn=tc.ansn,
                advertised=tc.advertised_neighbors,
            )

    # -------------------------------------------------------------- reception
    def handle_control(self, frame: Frame, now: float) -> None:
        """Process the OLSR messages of ``frame``, delivered at ``now``.

        This is the interface's ``receive``: the medium calls it once per
        delivered frame.  A HELLO is processed locally, a TC as flooded.
        Each message is counted and reads the store's recorded categories
        once.  A flooded message costs one duplicate-set lookup:
        :meth:`DuplicateSet.observe` records the reception and its answer
        (first reception, or whether the message was already retransmitted)
        decides both processing and forwarding.  A copy whose TTL is spent
        or that this node already relayed stops here; any other goes to
        :meth:`_consider_forwarding`.  Records follow the order ``MSG_RX``,
        then the TC's ``DROP``/``TOPOLOGY`` record or ``DUPLICATE``, then
        the forwarding record.
        """
        packet = frame.payload
        if not isinstance(packet, OlsrPacket):
            return
        last_hop = frame.source
        received = self.stats.per_type_received
        for message in packet.messages:
            originator = message.originator
            if originator == self.node_id:
                continue  # our own flooded message came back
            body = message.body
            message_type = body.message_type
            received[message_type] = received.get(message_type, 0) + 1
            recorded = self.log.recorded
            if message_type is _HELLO:
                declared = body.declared
                if declared is None:  # handed in without going through emission
                    declared = body.declare()
                if _MESSAGE_RX in recorded:
                    self._log_hello_rx(message, last_hop, declared, now)
                self.process_hello(message, last_hop, declared, now)
                continue

            # Flooded messages (TC).
            if _MESSAGE_RX in recorded:
                self._log_flooded_rx(message, last_hop, now)
            seq = message.message_seq_number
            retransmitted = self.duplicate_set.observe(originator, seq, now)
            if retransmitted is None:
                if message_type is _TC:
                    self.process_tc(message, last_hop, now)
            else:
                self.stats.duplicates_suppressed += 1
                if _DUPLICATE in recorded:
                    self.log.log(now, _DUPLICATE, "DUPLICATE_DETECTED",
                                 origin=originator, seq=seq)
            if message.ttl <= 1:
                if _DROP in recorded:
                    self.log.log(now, _DROP, "TTL_EXPIRED", origin=originator, seq=seq)
            elif not retransmitted:
                self._consider_forwarding(message, last_hop, now, recorded)

    def _log_hello_rx(self, message: OlsrMessage, last_hop: str,
                      declared: DeclaredSets, now: float) -> None:
        self.log.log(
            now,
            LogCategory.MESSAGE_RX,
            "HELLO",
            origin=message.originator,
            last_hop=last_hop,
            seq=message.message_seq_number,
            sym_neighbors=declared.symmetric,
            asym_neighbors=declared.asymmetric,
            mprs=declared.mprs,
            willingness=int(message.body.willingness),
        )

    def _log_flooded_rx(self, message: OlsrMessage, last_hop: str, now: float) -> None:
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
        self.log.log(now, LogCategory.MESSAGE_RX, str(message.message_type), **fields)

    # ------------------------------------------------------ HELLO processing
    def process_hello(self, message: OlsrMessage, last_hop: str,
                      declared: DeclaredSets, now: float) -> None:
        """Link sensing, neighbour detection, 2-hop population, MPR signalling
        from a HELLO received at ``now``.

        ``declared`` is the HELLO's :class:`DeclaredSets`, shared by every
        receiver; only what depends on this node is computed here.  Known
        2-hop and MPR-selector tuples are refreshed in place.
        """
        if (self._pending_mpr_symmetric is not None
                and LogCategory.MPR in self.log.recorded):
            self._settle_mprs()  # rule 3 of ``mpr_set``
        hello: HelloMessage = message.body
        origin = message.originator
        node_id = self.node_id
        hold = message.vtime if message.vtime > 0 else self.config.neighbor_hold_time

        link = self.link_set.get(origin)
        created = link is None
        if link is None:
            link = LinkTuple(local_address=node_id, neighbor_address=origin)
        was_symmetric = link.sym_time >= now

        link.asym_time = now + hold
        heard_us = node_id in declared.addresses
        declared_lost = node_id in declared.lost
        if heard_us and not declared_lost:
            link.sym_time = now + hold
        elif declared_lost:
            link.sym_time = -1.0
        link.expiry_time = max(link.asym_time, link.sym_time) + hold
        self.link_set.upsert(link)

        if created:
            self.log.log(now, LogCategory.LINK, "LINK_ADDED", neighbor=origin)
        now_symmetric = link.sym_time >= now
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
        # Both walks are sorted so the TWO_HOP trail does not follow the
        # hash seed's set order.
        if now_symmetric:
            added, withdrawn = self.two_hop_set.refresh(
                origin, declared.symmetric_sorted, node_id, now + hold)
            for address in added:
                self.log.log(now, LogCategory.TWO_HOP, "TWO_HOP_ADDED",
                             neighbor=origin, two_hop=address)
            for address in withdrawn:
                self.log.log(now, LogCategory.TWO_HOP, "TWO_HOP_REMOVED",
                             neighbor=origin, two_hop=address)

        # MPR selector set: the neighbour declares us with MPR neighbour type.
        if node_id in declared.mprs:
            if self.mpr_selector_set.refresh(origin, now + hold):
                self.log.log(now, LogCategory.MPR_SELECTOR, "SELECTOR_ADDED", selector=origin)
                self.ansn += 1
        elif origin in self.mpr_selector_set.by_address:
            self.mpr_selector_set.remove(origin)
            self.ansn += 1
            self.log.log(now, LogCategory.MPR_SELECTOR, "SELECTOR_REMOVED", selector=origin)

        self._recompute_mprs(now)

    # --------------------------------------------------------- TC processing
    def process_tc(self, message: OlsrMessage, last_hop: str, now: float) -> None:
        """Topology-set maintenance from a TC message received at ``now``."""
        link = self.link_set.by_address.get(last_hop)
        if link is None or not link.sym_time >= now:
            # RFC §9.5: discard TC messages not received from a symmetric neighbour.
            self.log.log(now, LogCategory.DROP, "FILTERED",
                         origin=message.originator, reason="tc_from_non_sym", last_hop=last_hop)
            return
        tc: TcMessage = message.body
        hold = message.vtime if message.vtime > 0 else self.config.topology_hold_time
        changed = self.topology_set.process_tc(
            originator=message.originator,
            ansn=tc.ansn,
            advertised=tc.advertised_neighbors,
            now=now,
            hold_time=hold,
        )
        if changed and LogCategory.TOPOLOGY in self.log.recorded:
            self.log.log(now, LogCategory.TOPOLOGY, "TOPOLOGY_UPDATED",
                         origin=message.originator, ansn=tc.ansn,
                         advertised=tc.advertised_neighbors)

    # -------------------------------------------------------------- forwarding
    def _consider_forwarding(self, message: OlsrMessage, last_hop: str,
                             now: float, recorded: FrozenSet[LogCategory]) -> None:
        """RFC §3.4 default forwarding algorithm (MPR flooding).

        :meth:`handle_control` calls it for a message with TTL left that
        this node has not relayed yet; ``recorded`` is the store's recorded
        categories as that message read them.
        """
        link = self.link_set.by_address.get(last_hop)
        if link is None or not link.sym_time >= now:
            return
        if last_hop not in self.mpr_selector_set.by_address:
            # We are not an MPR of the last hop: do not retransmit.
            if _FORWARD in recorded:
                self.log.log(now, _FORWARD, "NOT_RELAYED",
                             origin=message.originator, seq=message.message_seq_number,
                             reason="not_mpr_of_last_hop", last_hop=last_hop)
            return
        for forward_filter in self.forward_filters:
            if not forward_filter(message, last_hop, self):
                self.stats.messages_dropped += 1
                self.log.log(now, _DROP, "FILTERED",
                             origin=message.originator, seq=message.message_seq_number,
                             reason="forward_filter", last_hop=last_hop)
                return
        self.duplicate_set.mark_forwarded(message.originator, message.message_seq_number)
        forwarded = message.forwarded_copy()
        # Uniform in [0, forward_jitter): one draw, and the float
        # ``rng.uniform(0.0, forward_jitter)`` would give.
        delay = self.config.forward_jitter * self.rng.random()
        self.simulator.post(delay, self._transmit_forward, forwarded)
        self.stats.messages_forwarded += 1
        if _FORWARD in recorded:
            self.log.log(now, _FORWARD, "RELAYED",
                         origin=message.originator, seq=message.message_seq_number,
                         ttl=forwarded.ttl, last_hop=last_hop)

    def _transmit_forward(self, message: OlsrMessage) -> None:
        self.interface.broadcast(OlsrPacket(self.node_id, [message]),
                                 _HEADERS_SIZE + message.body.size_bytes())

    # ------------------------------------------------------------ maintenance
    def _housekeeping(self) -> None:
        self._settle_mprs()  # rule 2 of ``mpr_set``: the purges edit its inputs
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
            self._recompute_mprs(now)
        # Routes are computed on read (see ``routing_table``); this periodic
        # call only keeps a recorded ROUTE trail, coalescing the topology
        # churn of a whole HELLO interval into at most one recomputation.
        if LogCategory.ROUTE in self.log.recorded:
            self._recompute_routes()

    def _recompute_mprs(self, now: float) -> None:
        """An MPR-selection trigger at ``now``: select or defer (see ``mpr_set``)."""
        # The live symmetric set is time-dependent (links expire silently),
        # so it is part of the gate key alongside the structural versions.
        # The key holds the set itself: nothing mutates it once built.
        symmetric = self.link_set.symmetric_neighbors(now)
        inputs_key = (self.neighbor_set.version, self.two_hop_set.version, symmetric)
        if inputs_key == self._mpr_inputs_key:
            return
        self._mpr_inputs_key = inputs_key
        if LogCategory.MPR in self.log.recorded:
            self._select_mprs(symmetric, record=True)
        else:
            self._pending_mpr_symmetric = symmetric

    def _settle_mprs(self) -> None:
        """Run a deferred selection, silently, on its trigger's inputs."""
        if self._pending_mpr_symmetric is not None:
            self._select_mprs(self._pending_mpr_symmetric, record=False)

    def _select_mprs(self, symmetric: Set[str], record: bool) -> None:
        """Run RFC 3626 §8.3.1 selection; log the change when ``record``."""
        self._pending_mpr_symmetric = None
        willingness = {n.neighbor_address: n.willingness for n in self.neighbor_set}
        coverage = self.two_hop_set.coverage_map()
        result = select_mprs(
            symmetric_neighbors=symmetric,
            coverage=coverage,
            willingness=willingness,
            local_address=self.node_id,
        )
        new_set = result.mprs
        previous = self._mpr_set
        if new_set == previous:
            return
        if record:
            now = self.now
            for address in sorted(new_set - previous):
                self.log.log(now, LogCategory.MPR, "MPR_SELECTED", mpr=address,
                             covered=result.coverage.get(address, set()))
            for address in sorted(previous - new_set):
                self.log.log(now, LogCategory.MPR, "MPR_REMOVED", mpr=address)
            self.log.log(now, LogCategory.MPR, "MPR_SET_CHANGED",
                         mprs=new_set, previous=previous)
        self._mpr_set = new_set

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

