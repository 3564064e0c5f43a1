"""Greedy geographic routing backend.

Position-based forwarding: each node periodically beacons its own
coordinates, keeps a position table of its 1-hop neighbours, and forwards a
data packet to the neighbour geographically closest to the destination —
provided that neighbour is strictly closer than the node itself (greedy
progress).  When greedy forwarding hits a local minimum (no neighbour makes
progress — a "dead end" in the topology), a *perimeter fallback stub* takes
over: the packet is handed to the closest neighbour not yet on its path,
a simplified stand-in for GPSR's full perimeter (face) mode that is enough
to escape shallow voids and is clearly marked in the audit log.

Destination coordinates come from :meth:`repro.netsim.network.Network.
position_of` — an idealised location service (every geo-routing deployment
assumes one, e.g. GLS); only the *destination* lookup uses it, neighbour
positions travel in beacons like on a real radio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.logs.records import LogCategory
from repro.routing.base import DataPacket, RoutingProtocol
from repro.routing.registry import register_protocol


@dataclass
class GeoConfig:
    """Per-node configuration of the greedy-geo backend."""

    beacon_interval: float = 2.0
    #: Beacons that may be missed before the neighbour is considered gone.
    allowed_beacon_loss: int = 2
    housekeeping_interval: float = 1.0
    emission_jitter: float = 0.5
    start_delay_max: float = 1.0

    @property
    def neighbor_hold_time(self) -> float:
        """How long a neighbour survives without a fresh beacon."""
        return self.beacon_interval * self.allowed_beacon_loss + self.emission_jitter


@dataclass(slots=True)
class GeoBeacon:
    """1-hop position announcement."""

    originator: str
    position: Tuple[float, float]
    message_type: str = "GEO_BEACON"

    def size_bytes(self) -> int:
        return 28


class GreedyGeoNode(RoutingProtocol):
    """One greedy geographic router attached to a simulated network."""

    protocol_name = "geo"

    def __init__(
        self,
        node_id: str,
        network,
        config: Optional[GeoConfig] = None,
        log_store=None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, network, log_store=log_store, seed=seed)
        self.config = config if isinstance(config, GeoConfig) else GeoConfig()
        #: neighbour -> (position, expiry_time)
        self.neighbor_positions: Dict[str, Tuple[Tuple[float, float], float]] = {}
        self.perimeter_fallbacks = 0

    # ------------------------------------------------------------------ life
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.log.log(self.now, LogCategory.SYSTEM, "NODE_STARTED",
                     protocol=self.protocol_name)
        start_delay = self.rng.uniform(0.0, self.config.start_delay_max)
        self._schedule_periodic(
            self.config.beacon_interval,
            self._emit_beacon,
            start_delay=start_delay,
            jitter=self.config.emission_jitter,
            rng=self.rng,
        )
        self._schedule_periodic(
            self.config.housekeeping_interval,
            self._housekeeping,
            start_delay=self.config.housekeeping_interval,
        )

    # ----------------------------------------------------------- state views
    def symmetric_neighbors(self) -> Set[str]:
        now = self.now
        return {n for n, (_, expiry) in self.neighbor_positions.items()
                if expiry > now}

    def known_destinations(self) -> Set[str]:
        return self.symmetric_neighbors()

    def route_distance(self, destination: str) -> Optional[int]:
        return 1 if destination in self.symmetric_neighbors() else None

    # -------------------------------------------------------------- reception
    def handle_control(self, payload: object, last_hop: str) -> None:
        if not isinstance(payload, GeoBeacon):
            return
        if payload.originator == self.node_id:
            return
        self.stats.record_received("GEO_BEACON")
        now = self.now
        origin = payload.originator
        known = origin in self.neighbor_positions and \
            self.neighbor_positions[origin][1] > now
        self.neighbor_positions[origin] = (
            tuple(payload.position), now + self.config.neighbor_hold_time
        )
        if not known:
            self.log.log(now, LogCategory.NEIGHBOR, "NEIGHBOR_ADDED",
                         neighbor=origin)

    def _emit_beacon(self) -> None:
        if not self._started:
            return
        beacon = GeoBeacon(originator=self.node_id,
                           position=tuple(self.network.position_of(self.node_id)))
        self.interface.broadcast(beacon, size_bytes=beacon.size_bytes())
        self.stats.record_sent("GEO_BEACON")
        self.log.log(self.now, LogCategory.MESSAGE_TX, "GEO_BEACON",
                     position=list(beacon.position))

    def _housekeeping(self) -> None:
        now = self.now
        for neighbor in sorted(n for n, (_, expiry)
                               in self.neighbor_positions.items()
                               if expiry <= now):
            del self.neighbor_positions[neighbor]
            self.log.log(now, LogCategory.NEIGHBOR, "NEIGHBOR_REMOVED",
                         neighbor=neighbor)

    # ------------------------------------------------------------- forwarding
    def _destination_position(self, destination: str) -> Optional[Tuple[float, float]]:
        try:
            return tuple(self.network.position_of(destination))
        except KeyError:
            return None

    def _greedy_choice(self, destination: str,
                       exclude: Set[str]) -> Tuple[Optional[str], bool]:
        """(next hop, used perimeter fallback) toward ``destination``.

        Greedy mode picks the strictly-closest-to-destination neighbour;
        when none makes progress the perimeter stub picks the closest
        neighbour not yet visited by the packet.
        """
        target = self._destination_position(destination)
        if target is None:
            return None, False
        now = self.now
        candidates = {
            n: pos for n, (pos, expiry) in self.neighbor_positions.items()
            if expiry > now and n not in exclude
        }
        if destination in candidates:
            return destination, False
        if not candidates:
            return None, False
        own = tuple(self.network.position_of(self.node_id))
        own_distance = math.dist(own, target)
        # Deterministic tie-break: distance first, then node id.
        best, best_distance = min(
            ((n, math.dist(pos, target)) for n, pos in candidates.items()),
            key=lambda item: (item[1], item[0]),
        )
        if best_distance < own_distance:
            return best, False
        return best, True  # perimeter fallback stub: no greedy progress

    def next_hop(self, destination: str) -> Optional[str]:
        choice, _ = self._greedy_choice(destination, exclude=set())
        return choice

    def next_hop_for(self, packet: DataPacket) -> Optional[str]:
        exclude = set(packet.hops) - {packet.destination}
        choice, fallback = self._greedy_choice(packet.destination, exclude)
        if fallback:
            self.perimeter_fallbacks += 1
            self.log.log(self.now, LogCategory.ROUTE, "PERIMETER_FALLBACK",
                         destination=packet.destination, via=choice)
        return choice

    # ---------------------------------------------------------------- helpers
    def describe(self) -> Dict[str, object]:
        data = super().describe()
        data["perimeter_fallbacks"] = self.perimeter_fallbacks
        return data


def _build_geo(node_id, network, config=None, log_store=None, seed=None):
    return GreedyGeoNode(node_id, network, config=config,
                         log_store=log_store, seed=seed)


register_protocol(
    "geo",
    _build_geo,
    "greedy geographic routing: position beacons, closest-to-destination "
    "next hop, perimeter fallback stub",
)
