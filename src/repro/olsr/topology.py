"""Topology information base built from TC messages (RFC 3626 §9.5).

The set is keyed by originator.  Each TC originator a node has heard has
one entry: the advertised set of its latest accepted TC and one expiry
time.  A node's topology state therefore grows with the originators it
hears, not with the edges they advertise; the RFC's topology tuples
``(T_dest_addr, T_last_addr, T_seq, T_time)`` are built only when asked
for (:meth:`TopologySet.__iter__`, :meth:`TopologySet.purge_expired`).

Sharing invariant: the entry holds the TC's advertised set itself, not a
copy, so every receiver of one TC shares one set.  That is safe because
nothing mutates a sent TC: the originator builds the set once per TC,
:meth:`~repro.olsr.messages.OlsrMessage.forwarded_copy` shares the body,
and receivers only read it (as they read a HELLO's declared sets).

A same-ANSN TC that advertises a different set refreshes only the edges it
names, so that originator's entry alone turns into a ``destination →
expiry`` map and keeps every edge's expiry exact.  Traffic rarely takes
that branch: a same-ANSN TC is a re-emission of the same selector set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)


@dataclass
class TopologyTuple:
    """One advertised topology edge: ``last_address`` can reach ``destination_address``."""

    destination_address: str
    last_address: str
    ansn: int
    expiry_time: float = 0.0


#: An originator's destinations: its TC's set (one shared expiry), or a
#: ``destination → expiry`` map once a same-ANSN TC changed the set.
Advertised = Union[AbstractSet[str], Dict[str, float]]


class TopologySet:
    """TC originator → (latest ANSN, advertised destinations, expiry).

    ``version`` counts structural (edge set) changes only: the routing
    computation reads nothing but the edges, so expiry refreshes leave it
    untouched and the node can skip route recomputations whose inputs did
    not change.
    """

    def __init__(self) -> None:
        # The latest ANSN outlives a purge, so an older TC is still rejected.
        self._latest_ansn: Dict[str, int] = {}
        self._advertised: Dict[str, Advertised] = {}
        # Originator -> when its set expires; for a map entry, the earliest
        # of its destinations' expiries.
        self._expiry: Dict[str, float] = {}
        self.version = 0
        # Routing-view cache, invalidated by ``version`` (edge-set changes):
        # destinations in sorted order, each with its advertisers sorted.
        self._routing_view: Optional[
            Tuple[int, List[Tuple[str, Sequence[str]]]]] = None

    # ---------------------------------------------------------------- update
    def process_tc(
        self,
        originator: str,
        ansn: int,
        advertised: AbstractSet[str],
        now: float,
        hold_time: float,
    ) -> bool:
        """Apply a TC message from ``originator`` (RFC 3626 §9.5).

        Implements the RFC freshness rule: a TC whose ANSN is older than the
        freshest one already recorded for the originator is ignored.  Returns
        ``True`` when an edge was added or removed.  ``advertised`` is
        stored as it is (see the module docstring).

        Every stored edge of an originator carries its latest ANSN, so an
        accepted TC with a different ANSN is newer than all of them and
        replaces the entry; one with the latest ANSN and the same set only
        pushes the entry's expiry.
        """
        latest = self._latest_ansn.get(originator)
        if latest is not None and _ansn_older(ansn, latest):
            return False
        stored = self._advertised.get(originator)
        expiry = now + hold_time
        if ansn != latest or stored is None:
            self._latest_ansn[originator] = ansn
            if advertised:
                self._advertised[originator] = advertised
                self._expiry[originator] = expiry
            elif stored is not None:
                del self._advertised[originator]
                del self._expiry[originator]
            changed = stored is not None or bool(advertised)
        elif stored == advertised:  # a map never equals a set
            self._expiry[originator] = expiry
            return False
        else:
            changed = self._refresh_edges(originator, stored, advertised, expiry)
        if changed:
            self.version += 1
        return changed

    def _refresh_edges(self, originator: str, stored: Advertised,
                       advertised: AbstractSet[str], expiry: float) -> bool:
        """A same-ANSN TC with a different set: refresh the edges it names.

        The entry becomes (or stays) a ``destination → expiry`` map; edges
        the TC does not name keep their expiry.  ``True`` when it added one.
        """
        if not isinstance(stored, dict):
            stored = dict.fromkeys(stored, self._expiry[originator])
            self._advertised[originator] = stored
        size = len(stored)
        stored.update(dict.fromkeys(advertised, expiry))
        self._expiry[originator] = min(stored.values())
        return len(stored) != size

    def purge_expired(self, now: float) -> Iterator[TopologyTuple]:
        """Drop edges that expired before ``now``; returns the removed ones.

        The removal happens in the call.  The removed edges' tuples are
        built as the returned iterator is read, originator by originator.
        """
        expiry = self._expiry
        expired = [originator for originator, when in expiry.items() if when < now]
        removed: List[Tuple[str, int, Advertised, float]] = []
        for originator in expired:
            ansn = self._latest_ansn[originator]
            stored = self._advertised[originator]
            if isinstance(stored, dict):
                lapsed = {d: when for d, when in stored.items() if when < now}
                for destination in lapsed:
                    del stored[destination]
                removed.append((originator, ansn, lapsed, 0.0))
                if stored:
                    expiry[originator] = min(stored.values())
                    continue
            else:
                removed.append((originator, ansn, stored, expiry[originator]))
            del self._advertised[originator]
            del expiry[originator]
        if removed:
            self.version += 1
        return (edge for entry in removed for edge in _edges(*entry))

    # ---------------------------------------------------------- routing view
    def routing_view(self) -> List[Tuple[str, Sequence[str]]]:
        """Destinations with their advertisers, both in sorted order.

        This is exactly the traversal order of a sorted (destination, last
        hop) scan of the edges, grouped by destination so the routing
        calculation can skip already-routed destinations wholesale.  Cached
        on ``version``: expiry refreshes keep the edges — and therefore this
        view — unchanged.
        """
        cached = self._routing_view
        if cached is not None and cached[0] == self.version:
            return cached[1]
        advertisers: Dict[str, List[str]] = {}
        for originator in sorted(self._advertised):
            for destination in self._advertised[originator]:
                lasts = advertisers.get(destination)
                if lasts is None:
                    advertisers[destination] = [originator]
                else:
                    lasts.append(originator)
        view = sorted(advertisers.items())
        self._routing_view = (self.version, view)
        return view

    # --------------------------------------------------------------- queries
    def __iter__(self) -> Iterator[TopologyTuple]:
        """Every stored edge as a new tuple, originator by originator."""
        for originator, stored in self._advertised.items():
            yield from _edges(originator, self._latest_ansn[originator],
                              stored, self._expiry[originator])

    def __len__(self) -> int:
        return sum(map(len, self._advertised.values()))


def _edges(originator: str, ansn: int, stored: Advertised,
           expiry: float) -> Iterator[TopologyTuple]:
    """One originator's edges as tuples; a map carries its own expiries."""
    if isinstance(stored, dict):
        for destination, when in stored.items():
            yield TopologyTuple(destination, originator, ansn, when)
    else:
        for destination in stored:
            yield TopologyTuple(destination, originator, ansn, expiry)


def _ansn_older(candidate: int, reference: int) -> bool:
    """Sequence-number comparison with wrap-around (RFC §19): half the
    16-bit space, 32768, separates older from newer."""
    return (reference > candidate and reference - candidate <= 32768) or (
        candidate > reference and candidate - reference > 32768
    )
