"""The protocol-agnostic routing substrate.

:class:`RoutingProtocol` owns everything a MANET router needs that is *not*
specific to one protocol: the attachment to the simulated network (interface
creation, frame dispatch), the per-node audit :class:`~repro.logs.store.
LogStore` the paper's detector consumes, deterministic per-node randomness,
transmission statistics, the attack/monitoring hooks, and the hop-by-hop
data plane.  Concrete backends (OLSR, AODV, greedy-geo, …) implement the
protocol-specific quartet — neighbour discovery, route computation, next-hop
lookup, and control-message handling — plus their own periodic lifecycle.

Attack modules never patch protocol classes; they register *hooks*:

* ``forward_filters`` — veto the relaying of a message (blackhole/grayhole).
  Filters receive an object exposing at least ``originator`` and
  ``message_type``; on the data path that object comes from
  :meth:`RoutingProtocol._data_filter_probe`.
* ``data_handlers`` — deliver data packets addressed to this node.

Protocol-specific hooks (e.g. OLSR's ``hello_mutators``) live on the
backends that define the corresponding messages.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Set

from repro.logs.records import LogCategory
from repro.logs.store import LogStore
from repro.netsim.packet import Frame
from repro.netsim.stats import NodeStatistics
from repro.seeding import stable_digest


@dataclass(slots=True)
class DataPacket:
    """Minimal data-plane payload routed hop-by-hop over protocol routes."""

    source: str
    destination: str
    payload: object
    ttl: int = 32
    hops: List[str] = field(default_factory=list)


@dataclass(slots=True)
class ForwardProbe:
    """Stand-in handed to ``forward_filters`` on the data path.

    Protocols whose control messages are not OLSR messages still need to
    expose the data-forwarding decision to drop attacks; the probe carries
    the attributes those filters inspect (``originator``, ``message_type``).
    """

    originator: str
    message_type: str = "DATA"
    message_seq_number: int = 0


class RoutingProtocol(abc.ABC):
    """One router attached to a simulated network.

    The contract every backend implements:

    * :meth:`start` — schedule periodic control traffic and housekeeping.
    * :meth:`symmetric_neighbors` — current bidirectional 1-hop neighbours
      (neighbour discovery).
    * :meth:`next_hop` — next-hop lookup toward a destination (``None``
      when no route is known).
    * :meth:`handle_control` — process one received control payload.

    Everything else (data plane, frame dispatch, detector integration)
    has shared default behaviour that backends may refine.
    """

    #: Registry name of the protocol; used in reports and log records.
    protocol_name: ClassVar[str] = "generic"

    def __init__(
        self,
        node_id: str,
        network,
        log_store: Optional[LogStore] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.simulator = network.simulator
        self.log = log_store if log_store is not None else LogStore(node_id)
        self.rng = random.Random(seed if seed is not None else stable_digest(node_id) & 0xFFFF)
        self.stats = NodeStatistics()

        # Attack / monitoring hooks (protocol-agnostic).
        self.forward_filters: List[Callable] = []
        self.data_handlers: List[Callable[[DataPacket, str], None]] = []

        self._started = False
        #: Periodic-chain handles registered via :meth:`_schedule_periodic`;
        #: cancelled wholesale by :meth:`stop`.
        self._periodic_handles: List = []
        self.interface = network.interfaces.get(node_id)
        if self.interface is None:
            self.interface = network.create_interface(node_id)
        self.interface.bind(self._on_frame)
        network.attach_node(node_id, self)

    # ------------------------------------------------------------------ life
    @abc.abstractmethod
    def start(self) -> None:
        """Begin periodic control-traffic emission and housekeeping."""

    def stop(self) -> None:
        """Stop the node: cancel its periodic timers and go silent.

        The interface stays registered (frames still reach ``_on_frame``)
        but all control-traffic and housekeeping chains registered through
        :meth:`_schedule_periodic` are cancelled, so a stopped node leaves
        no live events behind in the engine.
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
    @abc.abstractmethod
    def symmetric_neighbors(self) -> Set[str]:
        """Current 1-hop bidirectional neighbours (the paper's ``NS``)."""

    @abc.abstractmethod
    def next_hop(self, destination: str) -> Optional[str]:
        """Next hop toward ``destination`` or ``None`` when unroutable."""

    def route_distance(self, destination: str) -> Optional[int]:
        """Known route metric toward ``destination`` (hop count), if any."""
        return None

    def known_destinations(self) -> Set[str]:
        """Destinations the protocol currently holds a route for."""
        return set()

    # ------------------------------------------------- detector integration
    def local_topology_answer(self, link_peer: str) -> bool:
        """Answer an investigation query: "is ``link_peer`` your symmetric neighbour?".

        This is the truthful answer used by well-behaving nodes; liars go
        through :class:`repro.attacks.liar.LiarBehavior` instead.
        """
        return link_peer in self.symmetric_neighbors()

    def peer_advertises(self, peer: str, address: str) -> Optional[bool]:
        """Whether ``peer`` advertises reachability of ``address`` to us.

        ``None`` means the protocol keeps no such second-hand state (AODV
        and geo routing do not); link-state protocols override this.
        """
        return None

    def coverage_of(self, neighbor: str) -> Set[str]:
        """2-hop addresses reachable through ``neighbor``, when tracked."""
        return set()

    def providers_of(self, two_hop_address: str) -> Set[str]:
        """1-hop neighbours claiming to reach ``two_hop_address``, when tracked."""
        return set()

    def is_mpr_selector(self, address: str) -> bool:
        """Whether ``address`` selected this node as a relay (OLSR-specific)."""
        return False

    # -------------------------------------------------------------- reception
    def _on_frame(self, frame: Frame, now: float) -> None:
        payload = frame.payload
        if isinstance(payload, DataPacket):
            self._on_data(payload, frame.source)
        else:
            self.handle_control(payload, frame.source)

    @abc.abstractmethod
    def handle_control(self, payload: object, last_hop: str) -> None:
        """Process one received control payload (packet or message)."""

    # -------------------------------------------------------------- data plane
    def send_data(self, destination: str, payload: object, ttl: int = 32) -> bool:
        """Send a data packet towards ``destination`` using protocol routes.

        Returns ``False`` when no route is known and the protocol cannot
        recover (reactive protocols may instead queue the packet and start
        a route discovery, in which case they return ``True``).
        """
        packet = DataPacket(source=self.node_id, destination=destination,
                            payload=payload, ttl=ttl, hops=[self.node_id])
        return self._route_data(packet)

    def _route_data(self, packet: DataPacket) -> bool:
        next_hop = self.next_hop_for(packet)
        if next_hop is None:
            return self._on_no_route(packet)
        self.interface.unicast(next_hop, packet, size_bytes=64 + 8 * packet.ttl)
        return True

    def next_hop_for(self, packet: DataPacket) -> Optional[str]:
        """Next hop for one specific packet (geo routing uses its history)."""
        return self.next_hop(packet.destination)

    def _on_no_route(self, packet: DataPacket) -> bool:
        """React to an unroutable packet; reactive protocols override."""
        self.log.log(self.now, LogCategory.DROP, "FILTERED",
                     reason="no_route", destination=packet.destination)
        return False

    def _data_filter_probe(self, packet: DataPacket):
        """Object handed to each forward filter for a transiting data packet."""
        return ForwardProbe(originator=packet.source)

    def _on_data(self, packet: DataPacket, last_hop: str) -> None:
        if packet.destination == self.node_id:
            for handler in self.data_handlers:
                handler(packet, last_hop)
            return
        if packet.ttl <= 1:
            self.log.log(self.now, LogCategory.DROP, "TTL_EXPIRED",
                         origin=packet.source, destination=packet.destination)
            return
        for forward_filter in self.forward_filters:
            pseudo = self._data_filter_probe(packet)
            if not forward_filter(pseudo, last_hop, self):
                self.stats.messages_dropped += 1
                self.log.log(self.now, LogCategory.DROP, "FILTERED",
                             reason="data_forward_filter", origin=packet.source,
                             destination=packet.destination)
                return
        packet.ttl -= 1
        packet.hops.append(self.node_id)
        self.log.log(self.now, LogCategory.FORWARD, "RELAYED",
                     origin=packet.source, destination=packet.destination, kind="data")
        self._route_data(packet)

    # ---------------------------------------------------------------- helpers
    def describe(self) -> Dict[str, object]:
        """Summary of the node's protocol state (used by examples/reports)."""
        return {
            "node": self.node_id,
            "protocol": self.protocol_name,
            "symmetric_neighbors": sorted(self.symmetric_neighbors()),
            "routes": len(self.known_destinations()),
        }
