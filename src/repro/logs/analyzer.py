"""Extraction of detection-relevant events from audit logs.

The analyzer is the first stage of the paper's detection pipeline: it parses
a node's own logs and surfaces the *local observations* that can start an
investigation — an MPR being replaced (evidence ``E1``), a previously
selected MPR caught misbehaving (``E2``), and the raw material needed to
evaluate ``E3``–``E5`` (who advertised which symmetric neighbours, and when).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from repro.logs.records import LogCategory, LogRecord
from repro.logs.store import LogStore


class DetectionEventType(str, enum.Enum):
    """Detection-relevant events the analyzer can emit."""

    MPR_REPLACED = "MPR_REPLACED"                  # evidence E1
    MPR_MISBEHAVIOR = "MPR_MISBEHAVIOR"            # evidence E2
    NEIGHBOR_APPEARED = "NEIGHBOR_APPEARED"
    NEIGHBOR_DISAPPEARED = "NEIGHBOR_DISAPPEARED"
    ADVERTISEMENT_CHANGED = "ADVERTISEMENT_CHANGED"
    LINK_INSTABILITY = "LINK_INSTABILITY"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DetectionEvent:
    """One event surfaced by the log analyzer."""

    time: float
    node: str
    event_type: DetectionEventType
    subject: str
    details: Dict[str, str] = field(default_factory=dict, hash=False, compare=False)


@dataclass
class NeighborhoodSnapshot:
    """Reconstruction (from logs) of what a neighbour recently advertised.

    ``advertised_symmetric`` is the set of addresses the neighbour declared as
    1-hop symmetric neighbours in its most recent HELLO, as observed by the
    local node through its ``MSG_RX`` log records.
    """

    neighbor: str
    last_hello_time: float
    advertised_symmetric: Set[str] = field(default_factory=set)
    willingness: Optional[int] = None


class LogAnalyzer:
    """Stateful analyzer scanning a :class:`LogStore` incrementally.

    Each call to :meth:`analyze` consumes the records appended since the
    previous call (through the store's analysis mark) and returns the
    detection events found.  The analyzer also maintains the per-neighbour
    :class:`NeighborhoodSnapshot` map against which it detects advertisement
    changes.
    """

    MARK = "log-analyzer"

    def __init__(self, store: LogStore, instability_threshold: int = 4,
                 instability_window: float = 30.0) -> None:
        self.store = store
        self.node_id = store.node_id
        self.snapshots: Dict[str, NeighborhoodSnapshot] = {}
        self.current_mprs: Set[str] = set()
        self.known_neighbors: Set[str] = set()
        self.instability_threshold = instability_threshold
        self.instability_window = instability_window
        self._link_flaps: Dict[str, List[float]] = {}
        self._handlers: Dict[LogCategory, Callable[[LogRecord], List[DetectionEvent]]] = {
            LogCategory.MESSAGE_RX: self._on_message_rx,
            LogCategory.MPR: self._on_mpr,
            LogCategory.NEIGHBOR: self._on_neighbor,
            LogCategory.LINK: self._on_link,
            LogCategory.DROP: self._on_drop,
            LogCategory.FORWARD: self._on_forward,
        }
        #: The categories the analyzer reads; every other record is ignored.
        self.categories: FrozenSet[LogCategory] = frozenset(self._handlers)
        # Registered as a reader (mark 0) so a bounded store keeps what this
        # analyzer has not consumed yet; recording is left to subscribe().
        store.subscribe(self.MARK)

    def subscribe(self) -> None:
        """Ask the store to record :attr:`categories` from now on.

        A store built with ``categories=()`` (a
        :class:`~repro.core.detector_node.DetectorNode`'s) records nothing
        for the analyzer until this is called; a bare store already records
        everything.
        """
        self.store.subscribe(self.MARK, self.categories)

    # ----------------------------------------------------------------- API
    def analyze(self) -> List[DetectionEvent]:
        """Process new log records and return the detection events found."""
        new_records = self.store.since_mark(self.MARK)
        self.store.advance_mark(self.MARK)
        events: List[DetectionEvent] = []
        for record in new_records:
            events.extend(self._process(record))
        return events

    # ------------------------------------------------------------ internals
    def _process(self, record: LogRecord) -> List[DetectionEvent]:
        handler = self._handlers.get(record.category)
        if handler is None:
            return []
        return handler(record)

    def _on_message_rx(self, record: LogRecord) -> List[DetectionEvent]:
        if record.event != "HELLO":
            return []
        sender = record.get("origin")
        if not sender:
            return []
        advertised = set(record.get_list("sym_neighbors"))
        willingness_raw = record.get("willingness")
        willingness = int(willingness_raw) if willingness_raw is not None else None
        previous = self.snapshots.get(sender)
        self.snapshots[sender] = NeighborhoodSnapshot(
            neighbor=sender,
            last_hello_time=record.time,
            advertised_symmetric=advertised,
            willingness=willingness,
        )
        events: List[DetectionEvent] = []
        if previous is not None and previous.advertised_symmetric != advertised:
            added = advertised - previous.advertised_symmetric
            removed = previous.advertised_symmetric - advertised
            events.append(
                DetectionEvent(
                    time=record.time,
                    node=self.node_id,
                    event_type=DetectionEventType.ADVERTISEMENT_CHANGED,
                    subject=sender,
                    details={
                        "added": ",".join(sorted(added)),
                        "removed": ",".join(sorted(removed)),
                    },
                )
            )
        return events

    def _on_mpr(self, record: LogRecord) -> List[DetectionEvent]:
        events: List[DetectionEvent] = []
        if record.event == "MPR_SET_CHANGED":
            new_set = set(record.get_list("mprs"))
            # The record carries the set as it was before the change; this is
            # authoritative even when MPR_SELECTED / MPR_REMOVED records in the
            # same batch already adjusted ``current_mprs``.
            previous = set(record.get_list("previous"))
            if not previous and "previous" not in record.fields:
                previous = set(self.current_mprs)
            removed = previous - new_set
            added = new_set - previous
            # An MPR replacement (E1) is a removal together with an addition:
            # some 1-hop neighbour increased/decreased its coverage to the
            # detriment of the replaced MPR.
            if removed and added:
                for old in sorted(removed):
                    events.append(
                        DetectionEvent(
                            time=record.time,
                            node=self.node_id,
                            event_type=DetectionEventType.MPR_REPLACED,
                            subject=",".join(sorted(added)),
                            details={
                                "replaced": old,
                                "replacing": ",".join(sorted(added)),
                            },
                        )
                    )
            self.current_mprs = new_set
        elif record.event == "MPR_SELECTED":
            mpr = record.get("mpr")
            if mpr:
                self.current_mprs.add(mpr)
        elif record.event == "MPR_REMOVED":
            mpr = record.get("mpr")
            if mpr:
                self.current_mprs.discard(mpr)
        return events

    def _on_neighbor(self, record: LogRecord) -> List[DetectionEvent]:
        neighbor = record.get("neighbor")
        if not neighbor:
            return []
        events: List[DetectionEvent] = []
        if record.event in ("NEIGHBOR_ADDED", "NEIGHBOR_SYM") and neighbor not in self.known_neighbors:
            self.known_neighbors.add(neighbor)
            events.append(
                DetectionEvent(
                    time=record.time,
                    node=self.node_id,
                    event_type=DetectionEventType.NEIGHBOR_APPEARED,
                    subject=neighbor,
                )
            )
        elif record.event == "NEIGHBOR_REMOVED" and neighbor in self.known_neighbors:
            self.known_neighbors.discard(neighbor)
            events.append(
                DetectionEvent(
                    time=record.time,
                    node=self.node_id,
                    event_type=DetectionEventType.NEIGHBOR_DISAPPEARED,
                    subject=neighbor,
                )
            )
        return events

    def _on_link(self, record: LogRecord) -> List[DetectionEvent]:
        neighbor = record.get("neighbor")
        if not neighbor:
            return []
        if record.event not in ("LINK_LOST", "LINK_EXPIRED"):
            return []
        flaps = self._link_flaps.setdefault(neighbor, [])
        flaps.append(record.time)
        cutoff = record.time - self.instability_window
        flaps[:] = [t for t in flaps if t >= cutoff]
        if len(flaps) >= self.instability_threshold:
            self._link_flaps[neighbor] = []
            return [
                DetectionEvent(
                    time=record.time,
                    node=self.node_id,
                    event_type=DetectionEventType.LINK_INSTABILITY,
                    subject=neighbor,
                    details={"flaps": str(self.instability_threshold)},
                )
            ]
        return []

    def _on_drop(self, record: LogRecord) -> List[DetectionEvent]:
        # Drops observed *about* an MPR (e.g. it failed to relay within the
        # allowed period) are evidence E2 against that MPR.
        culprit = record.get("culprit")
        if not culprit or culprit not in self.current_mprs:
            return []
        return [
            DetectionEvent(
                time=record.time,
                node=self.node_id,
                event_type=DetectionEventType.MPR_MISBEHAVIOR,
                subject=culprit,
                details={"reason": record.event},
            )
        ]

    def _on_forward(self, record: LogRecord) -> List[DetectionEvent]:
        if record.event != "NOT_RELAYED":
            return []
        culprit = record.get("culprit") or record.get("relay")
        if not culprit or culprit not in self.current_mprs:
            return []
        return [
            DetectionEvent(
                time=record.time,
                node=self.node_id,
                event_type=DetectionEventType.MPR_MISBEHAVIOR,
                subject=culprit,
                details={"reason": "NOT_RELAYED"},
            )
        ]
