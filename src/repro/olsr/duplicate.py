"""Duplicate set: suppression of already-processed / already-forwarded messages.

RFC 3626 §3.4 default forwarding algorithm relies on a duplicate set keyed by
(originator, message sequence number) to ensure each message is processed at
most once and retransmitted at most once.

An entry is its key, an expiry time and whether the message was
retransmitted; nothing else, and no object per entry: a map from key to
expiry and a set of retransmitted keys.  Entries outlive a short cell (the
30 s hold), so per-entry objects would stay alive, and be walked by the
garbage collector, for the whole run.  There is no receiving-interface list
(the RFC's ``D_iface_list``): each node has one interface, and the
forwarding decision consults only the retransmitted flag, a deviation from
§3.4.1 recorded as ROADMAP item 8.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

DuplicateKey = Tuple[str, int]


class DuplicateSet:
    """(originator, sequence number) → expiry time, plus retransmitted keys."""

    def __init__(self, hold_time: float = 30.0) -> None:
        self.hold_time = hold_time
        self._expiry: Dict[DuplicateKey, float] = {}
        self._retransmitted: Set[DuplicateKey] = set()

    def observe(self, originator: str, seq: int, now: float) -> Optional[bool]:
        """Record a reception and refresh its expiry.

        Returns ``None`` for the first reception of the message, and
        otherwise whether it has already been retransmitted.
        """
        key = (originator, seq)
        expiry = self._expiry
        seen = key in expiry
        expiry[key] = now + self.hold_time
        if not seen:
            return None
        return key in self._retransmitted

    def mark_forwarded(self, originator: str, seq: int) -> None:
        """Mark a recorded message as retransmitted."""
        key = (originator, seq)
        if key in self._expiry:
            self._retransmitted.add(key)

    def purge_expired(self, now: float) -> List[DuplicateKey]:
        """Drop expired entries; returns their keys."""
        expired = [key for key, expiry in self._expiry.items() if expiry < now]
        for key in expired:
            del self._expiry[key]
            self._retransmitted.discard(key)
        return expired

    def __contains__(self, key: DuplicateKey) -> bool:
        return key in self._expiry

    def __len__(self) -> int:
        return len(self._expiry)
