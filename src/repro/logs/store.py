"""Per-node audit-log store.

What a store records follows from who reads it.  A bare ``LogStore`` keeps
the full olsrd-style trail, as a real log file would.  A store built with
``categories=()`` (every :class:`~repro.core.detector_node.DetectorNode`
store) records only the categories its readers subscribed to with
:meth:`LogStore.subscribe`, and nothing while nobody reads it.
:meth:`LogStore.log` is the one write path that applies this filter.

The store supports the queries the detector needs: by category, by time
window, by event, and "records since the last analysis mark".  With
``max_records`` it is a bounded ring that never drops a record a reader
has not consumed yet.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.logs.parser import dump_records, load_records
from repro.logs.records import LogCategory, LogRecord, make_record

#: Every category: what a bare store records.
ALL_CATEGORIES: FrozenSet[LogCategory] = frozenset(LogCategory)


class LogStore:
    """Audit log of a single node.

    ``categories`` are recorded whether or not anyone subscribes (default:
    all of them); :meth:`subscribe` adds a reader's categories to those.
    Records of any other category are never built.
    """

    def __init__(self, node_id: str, max_records: Optional[int] = None,
                 categories: Iterable[LogCategory] = ALL_CATEGORIES) -> None:
        self.node_id = node_id
        self._records: List[LogRecord] = []
        self._max_records = max_records
        self._marks: Dict[str, int] = {}
        #: The categories whose records are kept; read-only (:meth:`subscribe`
        #: replaces it).  A caller tests membership here to skip building
        #: the fields of a record nobody keeps.
        self.recorded: FrozenSet[LogCategory] = frozenset(categories)

    # ------------------------------------------------------- subscriptions
    def subscribe(self, reader: str,
                  categories: Iterable[LogCategory] = ()) -> None:
        """Register ``reader`` and record ``categories`` from now on.

        ``reader`` names the reader's analysis mark (see :meth:`since_mark`;
        :meth:`advance_mark` registers its mark name too).  A registered
        reader that has not consumed anything yet holds mark 0, so a bounded
        store keeps every record it has not read.
        """
        self._marks.setdefault(reader, 0)
        self.recorded |= frozenset(categories)

    # ------------------------------------------------------------- writing
    def append(self, record: LogRecord) -> LogRecord:
        """Append an already-built record, whatever its category.

        A bounded store then trims its oldest records, but only those every
        reader's mark has passed.
        """
        self._records.append(record)
        if self._max_records is not None and len(self._records) > self._max_records:
            overflow = min([len(self._records) - self._max_records, *self._marks.values()])
            if overflow:
                del self._records[:overflow]
                # shift analysis marks so they keep pointing at the same records
                self._marks = {k: v - overflow for k, v in self._marks.items()}
        return record

    def log(self, time: float, category: LogCategory, event: str,
            **fields) -> Optional[LogRecord]:
        """Build (via :func:`make_record`) and append a record; ``None``
        when ``category`` is not recorded."""
        if category not in self.recorded:
            return None
        return self.append(make_record(time, self.node_id, category, event, **fields))

    def extend(self, records: Iterable[LogRecord]) -> None:
        """Append many records preserving order."""
        for record in records:
            self.append(record)

    # ------------------------------------------------------------- reading
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> List[LogRecord]:
        """All records, oldest first."""
        return list(self._records)

    def by_category(self, category: LogCategory) -> List[LogRecord]:
        """All records of ``category``."""
        return [r for r in self._records if r.category == category]

    def by_event(self, event: str) -> List[LogRecord]:
        """All records with the given event name."""
        return [r for r in self._records if r.event == event]

    def between(self, start: float, end: float) -> List[LogRecord]:
        """Records with ``start <= time <= end``."""
        return [r for r in self._records if start <= r.time <= end]

    def where(self, predicate: Callable[[LogRecord], bool]) -> List[LogRecord]:
        """Records satisfying an arbitrary predicate."""
        return [r for r in self._records if predicate(r)]

    def last(self, count: int = 1) -> List[LogRecord]:
        """The ``count`` most recent records."""
        if count <= 0:
            return []
        return list(self._records[-count:])

    # -------------------------------------------------- incremental analysis
    def since_mark(self, mark_name: str = "default") -> List[LogRecord]:
        """Records appended after the last call to :meth:`advance_mark`."""
        start = self._marks.get(mark_name, 0)
        return list(self._records[start:])

    def advance_mark(self, mark_name: str = "default") -> None:
        """Move the analysis mark to the end of the current log."""
        self._marks[mark_name] = len(self._records)

    # ------------------------------------------------------------- text I/O
    def dump_text(self) -> str:
        """Serialise the whole log to olsrd-like text."""
        return dump_records(self._records)

    @classmethod
    def from_text(cls, node_id: str, text: str) -> "LogStore":
        """Build a store from a text dump."""
        store = cls(node_id)
        store.extend(load_records(text))
        return store

    def clear(self) -> None:
        """Discard every record and analysis mark."""
        self._records.clear()
        self._marks.clear()
