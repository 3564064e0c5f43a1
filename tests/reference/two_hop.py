"""The 2-hop set with one tuple per (neighbour, address): the refresh oracle."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.olsr.link_state import TwoHopTuple


class PerAddressTwoHopSet:
    """RFC 3626 §4.3.2 2-hop set, as :class:`repro.olsr.link_state.TwoHopNeighborSet`
    was before it kept one coverage mask per neighbour: one
    :class:`TwoHopTuple`, with its own expiry, per (neighbour, 2-hop address).

    Tuples live in ``neighbour -> {2-hop address -> tuple}``.  A refresh
    walks every advertised address and refreshes, inserts or withdraws
    tuples one by one, and the purge asks each tuple whether it expired.
    The program's set must return the same ``TWO_HOP`` records, purge the
    same tuples in the same order, iterate the same tuples with the same
    expiries in the same order, move ``version`` alike and answer every
    query the same.  :meth:`upsert` and :meth:`remove` build a state tuple
    by tuple.

    ``version`` counts *structural* changes only — key insertions and
    removals.
    """

    def __init__(self) -> None:
        self._by_neighbor: Dict[str, Dict[str, TwoHopTuple]] = {}
        self.version = 0
        self._sorted_pairs: Optional[Tuple[int, List[Tuple[str, str]]]] = None

    def sorted_pairs(self) -> List[Tuple[str, str]]:
        """``(two_hop_address, neighbor_address)`` pairs in sorted order."""
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
