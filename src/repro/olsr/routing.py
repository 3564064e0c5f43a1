"""Routing-table calculation (RFC 3626 §10).

Routes are recomputed from scratch whenever the neighbourhood or the topology
set changes: first the symmetric 1-hop neighbours, then the 2-hop neighbours,
then increasingly distant destinations learned through TC edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.olsr.link_state import NeighborSet, TwoHopNeighborSet
from repro.olsr.topology import TopologySet


@dataclass(frozen=True)
class RouteEntry:
    """One routing-table entry."""

    destination: str
    next_hop: str
    distance: int


class RoutingTable:
    """Mapping destination -> :class:`RouteEntry`."""

    def __init__(self) -> None:
        self._routes: Dict[str, RouteEntry] = {}

    def get(self, destination: str) -> Optional[RouteEntry]:
        """Route towards ``destination`` (None when unreachable)."""
        return self._routes.get(destination)

    def next_hop(self, destination: str) -> Optional[str]:
        """Next hop towards ``destination`` (None when unreachable)."""
        entry = self._routes.get(destination)
        return entry.next_hop if entry else None

    def distance(self, destination: str) -> Optional[int]:
        """Hop count towards ``destination`` (None when unreachable)."""
        entry = self._routes.get(destination)
        return entry.distance if entry else None

    def entries(self) -> List[RouteEntry]:
        """All entries sorted by (distance, destination) for stable output."""
        return sorted(self._routes.values(), key=lambda e: (e.distance, e.destination))

    def replace_all(self, entries: Dict[str, RouteEntry]) -> "RoutingTableDiff":
        """Swap in a freshly computed table; returns the differences."""
        old = self._routes
        added = {d for d in entries if d not in old}
        removed = {d for d in old if d not in entries}
        changed = {
            d
            for d in entries
            if d in old and (entries[d].next_hop != old[d].next_hop or entries[d].distance != old[d].distance)
        }
        self._routes = dict(entries)
        return RoutingTableDiff(added=added, removed=removed, changed=changed)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self):
        return iter(self._routes.values())


@dataclass
class RoutingTableDiff:
    """Differences produced by a routing-table recomputation."""

    added: Set[str]
    removed: Set[str]
    changed: Set[str]

    @property
    def is_empty(self) -> bool:
        """Whether the recomputation changed nothing."""
        return not (self.added or self.removed or self.changed)


def compute_routing_table(
    local_address: str,
    neighbor_set: NeighborSet,
    two_hop_set: TwoHopNeighborSet,
    topology_set: TopologySet,
) -> Dict[str, RouteEntry]:
    """Compute the shortest-path routing table (hop-count metric).

    The procedure mirrors RFC 3626 §10: symmetric 1-hop neighbours get direct
    routes, 2-hop neighbours are routed through the advertising 1-hop
    neighbour, and farther destinations are added iteratively using the
    topology set (edges ``last_address -> destination``), always extending the
    shortest known route.
    """
    routes: Dict[str, RouteEntry] = {}

    # Step 1: symmetric 1-hop neighbours.
    for address in sorted(neighbor_set.symmetric_neighbors()):
        if address == local_address:
            continue
        routes[address] = RouteEntry(destination=address, next_hop=address, distance=1)

    # Step 2: 2-hop neighbours (through a symmetric neighbour).  The cached
    # sorted view walks the exact order of the former per-call
    # ``sorted(two_hop_set, key=(two_hop, neighbor))`` scan.
    for dest, via in two_hop_set.sorted_pairs():
        if dest == local_address or dest in routes:
            continue
        if via not in routes:
            continue
        routes[dest] = RouteEntry(destination=dest, next_hop=via, distance=2)

    # Step 3: iterative extension through TC edges.  ``routing_view`` groups
    # the (destination, last) scan order by destination, so each ring visits
    # a destination once and stops at its first advertiser in the frontier —
    # the same edge the former flat scan would have selected.
    topology_view = topology_set.routing_view()
    distance = 2
    while True:
        added_any = False
        frontier = {d for d, entry in routes.items() if entry.distance == distance}
        if not frontier:
            break
        for dest, lasts in topology_view:
            if dest == local_address or dest in routes:
                continue
            for last in lasts:
                if last in frontier:
                    via_entry = routes[last]
                    routes[dest] = RouteEntry(
                        destination=dest,
                        next_hop=via_entry.next_hop,
                        distance=distance + 1,
                    )
                    added_any = True
                    break
        if not added_any:
            break
        distance += 1

    return routes
