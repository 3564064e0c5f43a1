"""Duplicate set: suppression of already-processed / already-forwarded messages.

RFC 3626 §3.4 default forwarding algorithm relies on a duplicate set keyed by
(originator, message sequence number) to ensure each message is processed at
most once and retransmitted at most once.

The set is keyed by originator: each originator maps its sequence numbers to
their expiry times, and the retransmitted flag is the expiry's sign (negative
once the message was retransmitted).  An entry is one float under its
sequence number, with no tuple or other object per entry.  Entries outlive a
short cell (the 30 s hold), so per-entry objects would stay alive, and be
walked by the garbage collector, for the whole run.  There is no
receiving-interface list (the RFC's ``D_iface_list``): each node has one
interface, and the forwarding decision consults only the retransmitted flag,
a deviation from §3.4.1 recorded as ROADMAP item 3.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

DuplicateKey = Tuple[str, int]


class DuplicateSet:
    """originator → {sequence number → expiry time, negated once retransmitted}.

    Times are simulation times: ``now`` is non-negative and never decreases
    from call to call, and ``hold_time`` is positive.  So every expiry is
    positive (its sign is free to carry the flag), and an entry's expiry
    only grows.  That keeps the per-originator lower bound the purge reads
    exact: an originator whose earliest expiry is not before ``now`` has
    nothing to purge and is skipped.
    """

    def __init__(self, hold_time: float = 30.0) -> None:
        if not hold_time > 0:
            raise ValueError(f"hold_time must be positive, got {hold_time}")
        self.hold_time = hold_time
        self._expiry: Dict[str, Dict[int, float]] = {}
        # Originator -> a lower bound on its entries' expiries.
        self._earliest: Dict[str, float] = {}

    def observe(self, originator: str, seq: int, now: float) -> Optional[bool]:
        """Record a reception and refresh its expiry.

        Returns ``None`` for the first reception of the message, and
        otherwise whether it has already been retransmitted.
        """
        expiry = now + self.hold_time
        entries = self._expiry.get(originator)
        if entries is None:
            self._expiry[originator] = {seq: expiry}
            self._earliest[originator] = expiry
            return None
        previous = entries.get(seq)
        if previous is None:
            entries[seq] = expiry
            return None
        if previous < 0:
            entries[seq] = -expiry
            return True
        entries[seq] = expiry
        return False

    def mark_forwarded(self, originator: str, seq: int) -> None:
        """Mark a recorded message as retransmitted."""
        entries = self._expiry.get(originator)
        if entries is not None:
            expiry = entries.get(seq)
            if expiry is not None and expiry > 0:
                entries[seq] = -expiry

    def purge_expired(self, now: float) -> Iterator[DuplicateKey]:
        """Drop entries that expired before ``now``; returns their keys.

        The removal happens in the call; the keys are built as the returned
        iterator is read, originator by originator.
        """
        earliest = self._earliest
        removed: List[Tuple[str, List[int]]] = []
        for originator in [o for o, bound in earliest.items() if bound < now]:
            entries = self._expiry[originator]
            # |expiry| < now, with the flag's sign either way.
            lapsed = [seq for seq, expiry in entries.items() if -now < expiry < now]
            for seq in lapsed:
                del entries[seq]
            if lapsed:
                removed.append((originator, lapsed))
            if entries:
                earliest[originator] = min(map(abs, entries.values()))
            else:
                del self._expiry[originator]
                del earliest[originator]
        return ((originator, seq) for originator, lapsed in removed for seq in lapsed)

    def __contains__(self, key: DuplicateKey) -> bool:
        originator, seq = key
        entries = self._expiry.get(originator)
        return entries is not None and seq in entries

    def __len__(self) -> int:
        return sum(map(len, self._expiry.values()))
