"""Structured audit-log records produced by the OLSR node.

Every record is a flat ``(time, node, category, event, fields)`` tuple, the
content of one olsrd-style log line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class LogCategory(str, enum.Enum):
    """High-level category of an audit-log record."""

    MESSAGE_RX = "MSG_RX"
    MESSAGE_TX = "MSG_TX"
    FORWARD = "FORWARD"
    DROP = "DROP"
    LINK = "LINK"
    NEIGHBOR = "NEIGHBOR"
    TWO_HOP = "TWO_HOP"
    MPR = "MPR"
    MPR_SELECTOR = "MPR_SELECTOR"
    TOPOLOGY = "TOPOLOGY"
    ROUTE = "ROUTE"
    DUPLICATE = "DUPLICATE"
    SYSTEM = "SYSTEM"

    def __str__(self) -> str:  # keep the wire value when interpolated
        return self.value


#: Events emitted under each category.  Kept as plain strings so that new
#: events (e.g. from attack modules) do not require touching this module.
KNOWN_EVENTS = {
    LogCategory.MESSAGE_RX: {"HELLO", "TC", "MID", "HNA", "UNKNOWN"},
    LogCategory.MESSAGE_TX: {"HELLO", "TC", "MID", "HNA"},
    LogCategory.FORWARD: {"RELAYED", "NOT_RELAYED"},
    LogCategory.DROP: {"DUPLICATE", "TTL_EXPIRED", "NOT_MPR_SELECTOR", "FILTERED", "MALFORMED"},
    LogCategory.LINK: {"LINK_ADDED", "LINK_SYM", "LINK_ASYM", "LINK_LOST", "LINK_EXPIRED"},
    LogCategory.NEIGHBOR: {"NEIGHBOR_ADDED", "NEIGHBOR_REMOVED", "NEIGHBOR_SYM", "NEIGHBOR_NOT_SYM"},
    LogCategory.TWO_HOP: {"TWO_HOP_ADDED", "TWO_HOP_REMOVED"},
    LogCategory.MPR: {"MPR_SELECTED", "MPR_REMOVED", "MPR_SET_CHANGED"},
    LogCategory.MPR_SELECTOR: {"SELECTOR_ADDED", "SELECTOR_REMOVED"},
    LogCategory.TOPOLOGY: {"TOPOLOGY_ADDED", "TOPOLOGY_REMOVED", "TOPOLOGY_UPDATED"},
    LogCategory.ROUTE: {"ROUTE_ADDED", "ROUTE_REMOVED", "ROUTE_CHANGED", "TABLE_RECOMPUTED"},
    LogCategory.DUPLICATE: {"DUPLICATE_DETECTED"},
    LogCategory.SYSTEM: {"NODE_STARTED", "NODE_STOPPED", "CONFIG"},
}


@dataclass(frozen=True)
class LogRecord:
    """One audit-log line.

    Attributes
    ----------
    time:
        Simulated time at which the event was logged.
    node:
        Identifier of the node that produced the record (logs are local).
    category:
        One of :class:`LogCategory`.
    event:
        Short event name within the category (e.g. ``MPR_SELECTED``).
    fields:
        Flat ``str -> str`` attributes; multi-valued attributes are encoded as
        comma-separated lists by the caller.
    """

    time: float
    node: str
    category: LogCategory
    event: str
    fields: Dict[str, str] = field(default_factory=dict, hash=False, compare=False)

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Return field ``key`` or ``default`` when absent."""
        return self.fields.get(key, default)

    def get_list(self, key: str) -> list:
        """Return a comma-separated field as a list (empty list when absent)."""
        raw = self.fields.get(key, "")
        if not raw:
            return []
        return [item for item in raw.split(",") if item]


def make_record(
    time: float,
    node: str,
    category: LogCategory,
    event: str,
    **fields,
) -> LogRecord:
    """Convenience constructor converting every field value to ``str``.

    Lists and tuples are flattened to comma-separated strings so they survive
    the round trip through the textual log format.
    """
    converted: Dict[str, str] = {}
    for key, value in fields.items():
        if type(value) is str:  # fast path: the overwhelmingly common case
            converted[key] = value
        elif value is None:
            continue
        elif isinstance(value, (list, tuple, set, frozenset)):
            converted[key] = ",".join(str(v) for v in sorted(value, key=str))
        elif isinstance(value, float):
            converted[key] = f"{value:.6f}"
        else:
            converted[key] = str(value)
    return LogRecord(time=time, node=node, category=category, event=event, fields=converted)
