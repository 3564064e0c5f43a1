"""OLSR information repositories: link set, neighbour sets, MPR-selector set.

These follow RFC 3626 sections 4.2–4.3 and 8.4.  Every repository exposes
``purge_expired(now)`` so the node can discard stale tuples when processing
its periodic timers, plus the queries the MPR-selection and routing
computations need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.olsr.constants import Willingness


# --------------------------------------------------------------------- links
@dataclass
class LinkTuple:
    """One local link (RFC §4.2.1).

    ``sym_time`` and ``asym_time`` are absolute expiry times; the link is
    symmetric while ``sym_time`` has not expired, asymmetric (heard-only)
    while only ``asym_time`` holds, and lost otherwise.
    """

    local_address: str
    neighbor_address: str
    sym_time: float = -1.0
    asym_time: float = -1.0
    expiry_time: float = 0.0

    def is_symmetric(self, now: float) -> bool:
        """Whether the link is currently symmetric."""
        return self.sym_time >= now

    def is_asymmetric(self, now: float) -> bool:
        """Whether the link is heard but not (yet) symmetric."""
        return self.asym_time >= now and not self.is_symmetric(now)

    def is_expired(self, now: float) -> bool:
        """Whether the whole tuple should be discarded."""
        return self.expiry_time < now

    def status(self, now: float) -> str:
        """Human-readable link status used in audit logs."""
        if self.is_symmetric(now):
            return "SYM"
        if self.is_asymmetric(now):
            return "ASYM"
        return "LOST"


class LinkSet:
    """Collection of :class:`LinkTuple`, keyed by neighbour address."""

    def __init__(self) -> None:
        #: neighbour address → link tuple.  The flooded path reads it
        #: directly (``link.sym_time >= now`` is a symmetric link); write
        #: through the methods.
        self.by_address: Dict[str, LinkTuple] = {}

    def get(self, neighbor_address: str) -> Optional[LinkTuple]:
        """Link tuple towards ``neighbor_address`` (None when absent)."""
        return self.by_address.get(neighbor_address)

    def upsert(self, link: LinkTuple) -> LinkTuple:
        """Insert or replace the link towards ``link.neighbor_address``."""
        self.by_address[link.neighbor_address] = link
        return link

    def remove(self, neighbor_address: str) -> None:
        """Remove the link towards ``neighbor_address`` if present."""
        self.by_address.pop(neighbor_address, None)

    def purge_expired(self, now: float) -> List[LinkTuple]:
        """Drop expired tuples; returns the removed ones."""
        expired = [l for l in self.by_address.values() if l.is_expired(now)]
        for link in expired:
            del self.by_address[link.neighbor_address]
        return expired

    def symmetric_neighbors(self, now: float) -> Set[str]:
        """Addresses with a currently symmetric link."""
        return {a for a, l in self.by_address.items() if l.sym_time >= now}

    def asymmetric_neighbors(self, now: float) -> Set[str]:
        """Addresses heard but not symmetric."""
        return {a for a, l in self.by_address.items() if l.is_asymmetric(now)}

    def all_neighbors(self) -> Set[str]:
        """Every address with a (non-purged) link tuple."""
        return set(self.by_address)

    def __iter__(self):
        return iter(self.by_address.values())

    def __len__(self) -> int:
        return len(self.by_address)


# ----------------------------------------------------------------- neighbours
@dataclass
class NeighborTuple:
    """One 1-hop neighbour (RFC §4.3.1)."""

    neighbor_address: str
    symmetric: bool = False
    willingness: Willingness = Willingness.WILL_DEFAULT


class NeighborSet:
    """Collection of :class:`NeighborTuple` keyed by address.

    ``version`` counts every mutation that can change what the MPR selector
    or the routing computation would see (membership, plus in-place
    symmetric/willingness edits signalled through :meth:`touch`); the node
    uses it to skip recomputations whose inputs did not change.
    """

    def __init__(self) -> None:
        self._neighbors: Dict[str, NeighborTuple] = {}
        self.version = 0

    def touch(self) -> None:
        """Signal an in-place edit of a stored tuple (symmetric/willingness)."""
        self.version += 1

    def get(self, address: str) -> Optional[NeighborTuple]:
        """Neighbour tuple for ``address`` (None when absent)."""
        return self._neighbors.get(address)

    def upsert(self, neighbor: NeighborTuple) -> NeighborTuple:
        """Insert or replace the tuple for ``neighbor.neighbor_address``."""
        self._neighbors[neighbor.neighbor_address] = neighbor
        self.version += 1
        return neighbor

    def remove(self, address: str) -> None:
        """Remove the tuple for ``address`` if present."""
        if self._neighbors.pop(address, None) is not None:
            self.version += 1

    def symmetric_neighbors(self) -> Set[str]:
        """Addresses of neighbours with symmetric status."""
        return {a for a, n in self._neighbors.items() if n.symmetric}

    def willingness_of(self, address: str) -> Willingness:
        """Willingness of ``address`` (default when unknown)."""
        neighbor = self._neighbors.get(address)
        return neighbor.willingness if neighbor else Willingness.WILL_DEFAULT

    def addresses(self) -> Set[str]:
        """Every known 1-hop neighbour address."""
        return set(self._neighbors)

    def __iter__(self):
        return iter(self._neighbors.values())

    def __len__(self) -> int:
        return len(self._neighbors)


# ------------------------------------------------------------ 2-hop neighbours
@dataclass
class TwoHopTuple:
    """One 2-hop neighbour reachable through ``neighbor_address`` (RFC §4.3.2)."""

    neighbor_address: str
    two_hop_address: str
    expiry_time: float = 0.0


class TwoHopNeighborSet:
    """Collection of :class:`TwoHopTuple`, indexed by 1-hop neighbour.

    Tuples live in ``neighbour -> {2-hop address -> tuple}``, so the
    per-neighbour queries (:meth:`reachable_through`,
    :meth:`remove_for_neighbor`) and :meth:`coverage_map` cost the size of
    their answer instead of a scan over every tuple.  A neighbour with no
    tuple left has no entry.

    ``version`` counts *structural* changes only — key insertions and
    removals.  Refreshing an existing tuple's expiry does not change
    :meth:`coverage_map` or any other key-derived query, so it leaves the
    version alone; that is what lets the node skip MPR/route recomputations
    on steady-state HELLO refreshes.
    """

    def __init__(self) -> None:
        self._by_neighbor: Dict[str, Dict[str, TwoHopTuple]] = {}
        self.version = 0
        self._sorted_pairs: Optional[Tuple[int, List[Tuple[str, str]]]] = None

    def sorted_pairs(self) -> List[Tuple[str, str]]:
        """``(two_hop_address, neighbor_address)`` pairs in sorted order.

        The traversal order of the routing calculation's 2-hop pass, cached
        on ``version``: expiry refreshes keep the key set — and therefore
        this list — unchanged.
        """
        cached = self._sorted_pairs
        if cached is not None and cached[0] == self.version:
            return cached[1]
        pairs = sorted(
            (two_hop, neighbor)
            for neighbor, reached in self._by_neighbor.items()
            for two_hop in reached
        )
        self._sorted_pairs = (self.version, pairs)
        return pairs

    def refresh(self, neighbor_address: str, advertised: Sequence[str],
                local_address: str, expiry_time: float
                ) -> Tuple[List[str], List[str]]:
        """Apply one HELLO of ``neighbor_address`` advertising ``advertised``.

        ``advertised`` is the HELLO's symmetric set in sorted order; the
        receiver's own ``local_address`` in it is skipped.  Known tuples get
        ``expiry_time`` in place, new ones are inserted, and tuples through
        ``neighbor_address`` whose address the HELLO no longer advertises
        are withdrawn.  Returns ``(added, withdrawn)``, each sorted.

        Tuples, their order and ``version`` end up as with one
        :meth:`upsert` per advertised address followed by one
        :meth:`remove` per withdrawn one.  The withdrawal walk runs only
        when the neighbour's tuple count, after the insertions, differs
        from the number of addresses advertised: otherwise every stored
        address was advertised.
        """
        reached = self._by_neighbor.get(neighbor_address)
        if reached is None:
            reached = self._by_neighbor[neighbor_address] = {}
        added: List[str] = []
        count = 0
        for address in advertised:
            if address == local_address:
                continue
            count += 1
            record = reached.get(address)
            if record is None:
                reached[address] = TwoHopTuple(neighbor_address, address, expiry_time)
                added.append(address)
            else:
                record.expiry_time = expiry_time
        withdrawn: List[str] = []
        if len(reached) != count:
            withdrawn = sorted(reached.keys() - set(advertised))
            for address in withdrawn:
                del reached[address]
        if not reached:
            del self._by_neighbor[neighbor_address]
        self.version += len(added) + len(withdrawn)
        return added, withdrawn

    def upsert(self, record: TwoHopTuple) -> TwoHopTuple:
        """Insert or refresh a 2-hop tuple."""
        reached = self._by_neighbor.get(record.neighbor_address)
        if reached is None:
            reached = self._by_neighbor[record.neighbor_address] = {}
        if record.two_hop_address not in reached:
            self.version += 1
        reached[record.two_hop_address] = record
        return record

    def remove_for_neighbor(self, neighbor_address: str) -> None:
        """Drop every tuple whose intermediate is ``neighbor_address``."""
        if self._by_neighbor.pop(neighbor_address, None):
            self.version += 1

    def remove(self, neighbor_address: str, two_hop_address: str) -> None:
        """Drop one (neighbour, 2-hop) tuple if present."""
        reached = self._by_neighbor.get(neighbor_address)
        if reached is None or reached.pop(two_hop_address, None) is None:
            return
        if not reached:
            del self._by_neighbor[neighbor_address]
        self.version += 1

    def purge_expired(self, now: float) -> List[TwoHopTuple]:
        """Drop expired tuples; returns the removed ones."""
        expired: List[TwoHopTuple] = []
        for neighbor, reached in list(self._by_neighbor.items()):
            stale = [t for t in reached.values() if t.expiry_time < now]
            for record in stale:
                del reached[record.two_hop_address]
            if not reached:
                del self._by_neighbor[neighbor]
            expired.extend(stale)
        if expired:
            self.version += 1
        return expired

    def two_hop_addresses(self) -> Set[str]:
        """Every known 2-hop address."""
        return {a for reached in self._by_neighbor.values() for a in reached}

    def reachable_through(self, neighbor_address: str) -> Set[str]:
        """2-hop addresses reachable through the given 1-hop neighbour."""
        return set(self._by_neighbor.get(neighbor_address, ()))

    def providers_of(self, two_hop_address: str) -> Set[str]:
        """1-hop neighbours that provide connectivity to ``two_hop_address``."""
        return {n for n, reached in self._by_neighbor.items() if two_hop_address in reached}

    def coverage_map(self) -> Dict[str, Set[str]]:
        """Mapping 1-hop neighbour -> set of 2-hop addresses it covers."""
        return {n: set(reached) for n, reached in self._by_neighbor.items()}

    def __iter__(self):
        return (t for reached in self._by_neighbor.values() for t in reached.values())

    def __len__(self) -> int:
        return sum(len(reached) for reached in self._by_neighbor.values())


# ------------------------------------------------------------- MPR selectors
@dataclass
class MprSelectorTuple:
    """A neighbour that selected the local node as MPR (RFC §4.3.4)."""

    selector_address: str
    expiry_time: float = 0.0

    def is_expired(self, now: float) -> bool:
        """Whether the tuple should be discarded."""
        return self.expiry_time < now


class MprSelectorSet:
    """Collection of :class:`MprSelectorTuple` keyed by selector address."""

    def __init__(self) -> None:
        #: selector address → tuple; ``address in by_address`` is the
        #: membership test.  Write through the methods.
        self.by_address: Dict[str, MprSelectorTuple] = {}

    def upsert(self, record: MprSelectorTuple) -> MprSelectorTuple:
        """Insert or refresh a selector tuple."""
        self.by_address[record.selector_address] = record
        return record

    def refresh(self, selector_address: str, expiry_time: float) -> bool:
        """Push a known selector's expiry in place, or insert a new one;
        ``True`` when ``selector_address`` is a new selector."""
        record = self.by_address.get(selector_address)
        if record is None:
            self.by_address[selector_address] = MprSelectorTuple(selector_address,
                                                                  expiry_time)
            return True
        record.expiry_time = expiry_time
        return False

    def remove(self, selector_address: str) -> None:
        """Remove a selector tuple if present."""
        self.by_address.pop(selector_address, None)

    def purge_expired(self, now: float) -> List[MprSelectorTuple]:
        """Drop expired tuples; returns the removed ones."""
        expired = [s for s in self.by_address.values() if s.is_expired(now)]
        for record in expired:
            del self.by_address[record.selector_address]
        return expired

    def addresses(self) -> Set[str]:
        """Every address that currently selects the local node as MPR."""
        return set(self.by_address)

    def __iter__(self):
        return iter(self.by_address.values())

    def __len__(self) -> int:
        return len(self.by_address)
