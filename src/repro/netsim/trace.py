"""Simulation event tracing.

Traces record what happened during a run (frame deliveries, protocol events,
detection decisions) in a uniform, filterable format.  They are mainly used
by tests and by the experiment report generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence."""

    time: float
    category: str
    node: str
    description: str
    data: dict = field(default_factory=dict, hash=False, compare=False)


class TraceRecorder:
    """Append-only trace with simple querying.

    The recorder can be bounded (``max_events``) to keep long simulations from
    exhausting memory; when full, the oldest events are discarded.
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        self._events: List[TraceEvent] = []
        self._max_events = max_events
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    def record(
        self,
        time: float,
        category: str,
        node: str,
        description: str,
        **data,
    ) -> TraceEvent:
        """Append an event and notify subscribers."""
        event = TraceEvent(time=time, category=category, node=node,
                           description=description, data=data)
        self._events.append(event)
        if self._max_events is not None and len(self._events) > self._max_events:
            del self._events[: len(self._events) - self._max_events]
        for callback in self._subscribers:
            callback(event)
        return event

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked for every future event."""
        self._subscribers.append(callback)

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events (oldest first)."""
        return list(self._events)

    def by_category(self, category: str) -> List[TraceEvent]:
        """Events whose category matches exactly."""
        return [e for e in self._events if e.category == category]

    def between(self, start: float, end: float) -> List[TraceEvent]:
        """Events with ``start <= time <= end``."""
        return [e for e in self._events if start <= e.time <= end]

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        """Events satisfying an arbitrary predicate."""
        return [e for e in self._events if predicate(e)]

    def clear(self) -> None:
        """Discard every recorded event."""
        self._events.clear()

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Bulk-append already constructed events (used when merging traces)."""
        for event in events:
            self._events.append(event)
        if self._max_events is not None and len(self._events) > self._max_events:
            del self._events[: len(self._events) - self._max_events]
