"""OLSR information repositories: link set, neighbour sets, MPR-selector set.

These follow RFC 3626 sections 4.2–4.3 and 8.4.  Every repository exposes
``purge_expired(now)`` so the node can discard stale tuples when processing
its periodic timers, plus the queries the MPR-selection and routing
computations need.

The 2-hop set keeps one integer coverage mask per 1-hop neighbour, in the
bits of the network's :class:`~repro.netsim.network.AddressIndex`: the MPR
selection and the E3 sole-provider check read the masks, and a HELLO that
advertises what its sender's last one did costs its receiver one mask
comparison.  Its queries for the investigation and the routing calculation
answer with address strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.netsim.network import AddressIndex
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
    """One 2-hop neighbour reachable through ``neighbor_address`` (RFC §4.3.2).

    :class:`TwoHopNeighborSet` stores none: it builds them when iterated
    and for the tuples :meth:`~TwoHopNeighborSet.purge_expired` removes.
    """

    neighbor_address: str
    two_hop_address: str
    expiry_time: float = 0.0


class TwoHopNeighborSet:
    """One node's 2-hop neighbourhood, one coverage mask per 1-hop neighbour.

    For each neighbour whose HELLOs advertise some 2-hop address it keeps
    three things: :attr:`coverage`, the mask (in the network's
    :class:`~repro.netsim.network.AddressIndex`) of the addresses its last
    HELLO advertised; one expiry; and those addresses in the order they
    were first added, which is the order iteration and
    :meth:`purge_expired` report them in.  A neighbour with no address left
    has no entry.  One expiry per neighbour is exact because
    :meth:`refresh` is the only writer: it gives every advertised address
    the expiry of the HELLO and withdraws the rest, so all tuples through a
    neighbour share the expiry of its last HELLO.

    ``version`` counts *structural* changes only: one per address a refresh
    adds or withdraws, one per purge that removed something and one per
    neighbour removed.  A HELLO that advertises what the last one did
    writes only the expiry and leaves the version alone; that is what lets
    the node skip MPR/route recomputations on steady-state HELLO refreshes.
    """

    def __init__(self, index: AddressIndex, local_address: str) -> None:
        self.index = index
        #: neighbour → mask of the 2-hop addresses it covers (never 0).
        #: Read it; write through :meth:`refresh`.
        self.coverage: Dict[str, int] = {}
        self._expiry: Dict[str, float] = {}
        self._order: Dict[str, List[str]] = {}
        #: Clears the local address's bit: a node is never its own 2-hop
        #: neighbour.
        self._not_local = ~index.bit(local_address)
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
            for neighbor, reached in self._order.items()
            for two_hop in reached
        )
        self._sorted_pairs = (self.version, pairs)
        return pairs

    def refresh(self, neighbor_address: str, advertised: int, expiry_time: float
                ) -> Tuple[Sequence[str], Sequence[str]]:
        """Apply one HELLO of ``neighbor_address`` advertising ``advertised``.

        ``advertised`` is the HELLO's symmetric mask; the local address's
        bit in it is ignored.  Every advertised address gets
        ``expiry_time``, and addresses through ``neighbor_address`` the
        HELLO no longer advertises are withdrawn.  Returns ``(added,
        withdrawn)``, each sorted.  A mask equal to the stored one writes
        only the expiry.
        """
        advertised &= self._not_local
        coverage = self.coverage
        stored = coverage.get(neighbor_address, 0)
        if advertised == stored:
            if stored:
                self._expiry[neighbor_address] = expiry_time
            return (), ()
        gained = advertised & ~stored
        lost = stored & ~advertised
        added = self.index.addresses(gained) if gained else ()
        withdrawn = self.index.addresses(lost) if lost else ()
        if not advertised:
            del coverage[neighbor_address]
            del self._expiry[neighbor_address]
            del self._order[neighbor_address]
        else:
            coverage[neighbor_address] = advertised
            self._expiry[neighbor_address] = expiry_time
            if not stored:
                self._order[neighbor_address] = list(added)
            else:
                order = self._order[neighbor_address]
                if withdrawn:
                    gone = set(withdrawn)
                    order = self._order[neighbor_address] = [
                        address for address in order if address not in gone]
                order += added
        self.version += len(added) + len(withdrawn)
        return added, withdrawn

    def remove_for_neighbor(self, neighbor_address: str) -> None:
        """Drop every tuple whose intermediate is ``neighbor_address``."""
        if self.coverage.pop(neighbor_address, None) is not None:
            del self._expiry[neighbor_address]
            del self._order[neighbor_address]
            self.version += 1

    def purge_expired(self, now: float) -> List[TwoHopTuple]:
        """Drop the neighbours whose last HELLO lapsed; returns their
        tuples, neighbour by neighbour, each in first-added order."""
        lapsed = [neighbor for neighbor, expiry in self._expiry.items() if expiry < now]
        if not lapsed:
            return []
        expired: List[TwoHopTuple] = []
        for neighbor in lapsed:
            del self.coverage[neighbor]
            expiry = self._expiry.pop(neighbor)
            expired += [TwoHopTuple(neighbor, address, expiry)
                        for address in self._order.pop(neighbor)]
        self.version += 1
        return expired

    def reachable_through(self, neighbor_address: str) -> Set[str]:
        """2-hop addresses reachable through the given 1-hop neighbour."""
        return set(self._order.get(neighbor_address, ()))

    def coverage_map(self) -> Dict[str, Set[str]]:
        """Mapping 1-hop neighbour -> set of 2-hop addresses it covers."""
        return {n: set(reached) for n, reached in self._order.items()}

    def __iter__(self):
        return (TwoHopTuple(neighbor, address, self._expiry[neighbor])
                for neighbor, reached in self._order.items() for address in reached)

    def __len__(self) -> int:
        return sum(map(len, self._order.values()))


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
