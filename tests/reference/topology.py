"""The topology set that rebuilds on every TC: the TC-processing oracle."""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.olsr.topology import TopologyTuple, _ansn_older


class RebuildingTopologySet:
    """RFC 3626 §9.5 topology set, as :class:`repro.olsr.topology.TopologySet`
    was before it refreshed tuples in place and before it was keyed by
    originator: one :class:`TopologyTuple` per (destination, last hop) edge.

    Every accepted TC scans the originator's tuples for a stale ANSN and
    replaces each advertised tuple with a new one, and the purge asks each
    tuple whether it expired.  The program's set must return the same
    values, versions and routing view, and keep and purge the same tuples
    (compared in sorted order: it iterates originator by originator).
    """

    def __init__(self) -> None:
        self._tuples: Dict[Tuple[str, str], TopologyTuple] = {}
        self._latest_ansn: Dict[str, int] = {}
        self.version = 0
        self._keys_by_originator: Dict[str, Dict[Tuple[str, str], None]] = {}

    def process_tc(self, originator: str, ansn: int, advertised: Set[str],
                   now: float, hold_time: float) -> bool:
        """Apply a TC; ``True`` when the set was modified."""
        latest = self._latest_ansn.get(originator)
        if latest is not None and _ansn_older(ansn, latest):
            return False
        self._latest_ansn[originator] = ansn

        changed = False
        own_keys = self._keys_by_originator.get(originator, {})
        stale = [
            key for key in own_keys
            if _ansn_older(self._tuples[key].ansn, ansn)
        ]
        for key in stale:
            self._discard(key)
            changed = True

        for destination in advertised:
            key = (destination, originator)
            existing = self._tuples.get(key)
            if existing is None:
                changed = True
                self._keys_by_originator.setdefault(originator, {})[key] = None
            self._tuples[key] = TopologyTuple(
                destination_address=destination,
                last_address=originator,
                ansn=ansn,
                expiry_time=now + hold_time,
            )
        if changed:
            self.version += 1
        return changed

    def _discard(self, key: Tuple[str, str]) -> None:
        del self._tuples[key]
        originator_keys = self._keys_by_originator.get(key[1])
        if originator_keys is not None:
            originator_keys.pop(key, None)
            if not originator_keys:
                del self._keys_by_originator[key[1]]

    def purge_expired(self, now: float) -> List[TopologyTuple]:
        """Drop expired tuples; returns the removed ones."""
        expired = [t for t in self._tuples.values() if t.expiry_time < now]
        for record in expired:
            self._discard((record.destination_address, record.last_address))
        if expired:
            self.version += 1
        return expired

    def routing_view(self) -> List[Tuple[str, Sequence[str]]]:
        """Destinations with their advertisers, both in sorted order."""
        view: List[Tuple[str, List[str]]] = []
        for destination, last in sorted(self._tuples):
            if view and view[-1][0] == destination:
                view[-1][1].append(last)
            else:
                view.append((destination, [last]))
        return view

    def __iter__(self):
        return iter(self._tuples.values())
