"""OLSR audit-log subsystem.

The paper's detector is *log-based*: instead of sniffing packets it parses the
audit logs that the routing daemon already produces.  This package models that
pipeline:

* :mod:`repro.logs.records` — structured log records and their categories.
* :mod:`repro.logs.store` — per-node log store with querying.  What it records
  follows from who reads it: a bare store keeps the full trail, while a
  detector node's store records only the categories a reader subscribed to
  (the investigating victim's analyzer, an invariant auditor).
* :mod:`repro.logs.parser` — olsrd-like text serialisation and parsing of
  records (:meth:`~repro.logs.store.LogStore.dump_text` and
  :meth:`~repro.logs.store.LogStore.from_text`).  The analyzer reads the
  in-memory :class:`~repro.logs.records.LogRecord` objects; the text format
  is for dumps, and tests pin its round trip.
* :mod:`repro.logs.analyzer` — extraction of detection-relevant events
  (MPR replacements, misbehaviour observations, neighbourhood changes).
"""

from repro.logs.records import LogCategory, LogRecord
from repro.logs.store import LogStore
from repro.logs.parser import LogParseError, format_record, parse_line, parse_lines
from repro.logs.analyzer import (
    DetectionEvent,
    DetectionEventType,
    LogAnalyzer,
    NeighborhoodSnapshot,
)

__all__ = [
    "DetectionEvent",
    "DetectionEventType",
    "LogAnalyzer",
    "LogCategory",
    "LogParseError",
    "LogRecord",
    "LogStore",
    "NeighborhoodSnapshot",
    "format_record",
    "parse_line",
    "parse_lines",
]
