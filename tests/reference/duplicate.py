"""The flat duplicate set: the duplicate-set oracle."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

DuplicateKey = Tuple[str, int]


class FlatDuplicateSet:
    """RFC 3626 §3.4 duplicate set, as
    :class:`repro.olsr.duplicate.DuplicateSet` was before it was keyed by
    originator: (originator, sequence number) → expiry time, plus a set of
    retransmitted keys, with one key tuple per entry.

    The program's set must give the same answers, membership, size and
    purged keys (as a set: it purges originator by originator).
    """

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
