"""Topology information base built from TC messages (RFC 3626 §9.5)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass
class TopologyTuple:
    """One advertised topology edge: ``last_address`` can reach ``destination_address``."""

    destination_address: str
    last_address: str
    ansn: int
    expiry_time: float = 0.0


class TopologySet:
    """Collection of :class:`TopologyTuple` keyed by (destination, last hop).

    ``version`` counts structural (key set) changes only: the routing
    computation reads nothing but the keys, so ANSN/expiry refreshes of
    existing edges leave it untouched and the node can skip route
    recomputations whose inputs did not change.
    """

    def __init__(self) -> None:
        self._tuples: Dict[Tuple[str, str], TopologyTuple] = {}
        self._latest_ansn: Dict[str, int] = {}
        self.version = 0
        # Secondary index: originator -> its keys (insertion-ordered).  TC
        # processing and originator removal would otherwise scan the whole
        # tuple table per message, which dominates at 1,024-node scale.
        self._keys_by_originator: Dict[str, Dict[Tuple[str, str], None]] = {}
        # Routing-view cache, invalidated by ``version`` (key-set changes):
        # destinations in sorted order, each with its advertisers sorted.
        self._routing_view: Optional[
            Tuple[int, List[Tuple[str, Sequence[str]]]]] = None

    # ---------------------------------------------------------------- update
    def process_tc(
        self,
        originator: str,
        ansn: int,
        advertised: Iterable[str],
        now: float,
        hold_time: float,
    ) -> bool:
        """Apply a TC message from ``originator`` (RFC 3626 §9.5).

        Implements the RFC freshness rule: a TC whose ANSN is older than the
        freshest one already recorded for the originator is ignored.  Returns
        ``True`` when the topology set was modified.

        Invariant: every stored tuple of an originator carries that
        originator's latest ANSN.  An accepted TC with a different ANSN is
        newer than all of them, so it removes them all; one with the latest
        ANSN removes none.  The stale-ANSN scan therefore runs only when the
        ANSN moved, and a tuple the TC refreshes already carries its ANSN:
        the refresh pushes its expiry in place.
        """
        latest = self._latest_ansn.get(originator)
        if latest is not None and _ansn_older(ansn, latest):
            return False

        changed = False
        if ansn != latest:
            self._latest_ansn[originator] = ansn
            # Remove tuples from this originator with an older ANSN (via the
            # per-originator index: only this originator's keys are scanned).
            own_keys = self._keys_by_originator.get(originator, {})
            stale = [
                key for key in own_keys
                if _ansn_older(self._tuples[key].ansn, ansn)
            ]
            for key in stale:
                self._discard(key)
                changed = True

        tuples = self._tuples
        expiry_time = now + hold_time
        for destination in advertised:
            key = (destination, originator)
            existing = tuples.get(key)
            if existing is None:
                changed = True
                self._keys_by_originator.setdefault(originator, {})[key] = None
                tuples[key] = TopologyTuple(
                    destination_address=destination,
                    last_address=originator,
                    ansn=ansn,
                    expiry_time=expiry_time,
                )
            else:
                existing.expiry_time = expiry_time
        if changed:
            self.version += 1
        return changed

    def _discard(self, key: Tuple[str, str]) -> None:
        """Remove one tuple and its index entry (key must be present)."""
        del self._tuples[key]
        originator_keys = self._keys_by_originator.get(key[1])
        if originator_keys is not None:
            originator_keys.pop(key, None)
            if not originator_keys:
                del self._keys_by_originator[key[1]]

    def remove_for_originator(self, originator: str) -> None:
        """Drop every edge advertised by ``originator``."""
        stale = list(self._keys_by_originator.get(originator, ()))
        for key in stale:
            self._discard(key)
        if stale:
            self.version += 1

    def purge_expired(self, now: float) -> List[TopologyTuple]:
        """Drop expired tuples; returns the removed ones."""
        expired = [t for t in self._tuples.values() if t.expiry_time < now]
        for record in expired:
            self._discard((record.destination_address, record.last_address))
        if expired:
            self.version += 1
        return expired

    # ---------------------------------------------------------- routing view
    def routing_view(self) -> List[Tuple[str, Sequence[str]]]:
        """Destinations with their advertisers, both in sorted order.

        This is exactly the traversal order of a ``sorted(topology_set,
        key=(destination, last))`` scan, pre-grouped by destination so the
        routing calculation can skip already-routed destinations wholesale.
        Cached on ``version``: ANSN/expiry refreshes keep the key set — and
        therefore this view — unchanged.
        """
        cached = self._routing_view
        if cached is not None and cached[0] == self.version:
            return cached[1]
        view: List[Tuple[str, List[str]]] = []
        for destination, last in sorted(self._tuples):
            if view and view[-1][0] == destination:
                view[-1][1].append(last)
            else:
                view.append((destination, [last]))
        self._routing_view = (self.version, view)
        return view

    # --------------------------------------------------------------- queries
    def edges(self) -> List[Tuple[str, str]]:
        """All (last_address, destination_address) directed edges."""
        return [(t.last_address, t.destination_address) for t in self._tuples.values()]

    def destinations(self) -> Set[str]:
        """All advertised destination addresses."""
        return {t.destination_address for t in self._tuples.values()}

    def last_hops_for(self, destination: str) -> Set[str]:
        """Nodes advertising reachability to ``destination``."""
        return {
            t.last_address
            for t in self._tuples.values()
            if t.destination_address == destination
        }

    def advertised_by(self, last_address: str) -> Set[str]:
        """Destinations advertised by ``last_address``."""
        return {
            t.destination_address
            for t in self._tuples.values()
            if t.last_address == last_address
        }

    def get(self, destination: str, last_address: str) -> Optional[TopologyTuple]:
        """Specific tuple (None when absent)."""
        return self._tuples.get((destination, last_address))

    def __iter__(self):
        return iter(self._tuples.values())

    def __len__(self) -> int:
        return len(self._tuples)


def _ansn_older(candidate: int, reference: int, window: int = 32768) -> bool:
    """Sequence-number comparison with wrap-around (RFC §19)."""
    return (reference > candidate and reference - candidate <= window) or (
        candidate > reference and candidate - reference > window
    )
