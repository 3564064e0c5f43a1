"""Tests for the log analyzer (detection-event extraction)."""

from __future__ import annotations

from repro.logs.analyzer import DetectionEventType, LogAnalyzer
from repro.logs.records import LogCategory
from repro.logs.store import LogStore


def make_analyzer() -> tuple[LogStore, LogAnalyzer]:
    store = LogStore("me")
    return store, LogAnalyzer(store)


def test_hello_rx_builds_snapshot():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.MESSAGE_RX, "HELLO", origin="n1",
              sym_neighbors=["a", "b"], willingness=3)
    analyzer.analyze()
    snapshot = analyzer.snapshots.get("n1")
    assert snapshot is not None
    assert snapshot.advertised_symmetric == {"a", "b"}
    assert snapshot.willingness == 3
    assert "unknown" not in analyzer.snapshots


def test_advertisement_change_event_emitted():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.MESSAGE_RX, "HELLO", origin="n1", sym_neighbors=["a"])
    store.log(2.0, LogCategory.MESSAGE_RX, "HELLO", origin="n1", sym_neighbors=["a", "b"])
    events = analyzer.analyze()
    changes = [e for e in events if e.event_type == DetectionEventType.ADVERTISEMENT_CHANGED]
    assert len(changes) == 1
    assert changes[0].subject == "n1"
    assert changes[0].details["added"] == "b"
    assert changes[0].details["removed"] == ""


def test_identical_hello_does_not_emit_change():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.MESSAGE_RX, "HELLO", origin="n1", sym_neighbors=["a"])
    store.log(2.0, LogCategory.MESSAGE_RX, "HELLO", origin="n1", sym_neighbors=["a"])
    events = analyzer.analyze()
    assert not [e for e in events if e.event_type == DetectionEventType.ADVERTISEMENT_CHANGED]


def test_mpr_replacement_emits_e1_event():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["old"], previous=[])
    analyzer.analyze()
    store.log(5.0, LogCategory.MPR, "MPR_SELECTED", mpr="new")
    store.log(5.0, LogCategory.MPR, "MPR_REMOVED", mpr="old")
    store.log(5.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["new"], previous=["old"])
    events = analyzer.analyze()
    replacements = [e for e in events if e.event_type == DetectionEventType.MPR_REPLACED]
    assert len(replacements) == 1
    assert replacements[0].details["replaced"] == "old"
    assert replacements[0].details["replacing"] == "new"
    assert analyzer.current_mprs == {"new"}


def test_mpr_addition_without_removal_is_not_replacement():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["a"], previous=[])
    store.log(2.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["a", "b"], previous=["a"])
    events = analyzer.analyze()
    assert not [e for e in events if e.event_type == DetectionEventType.MPR_REPLACED]


def test_mpr_removal_without_addition_is_not_replacement():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["a", "b"], previous=[])
    store.log(2.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["a"], previous=["a", "b"])
    events = analyzer.analyze()
    assert not [e for e in events if e.event_type == DetectionEventType.MPR_REPLACED]


def test_neighbor_appeared_and_disappeared():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.NEIGHBOR, "NEIGHBOR_ADDED", neighbor="n1")
    store.log(2.0, LogCategory.NEIGHBOR, "NEIGHBOR_REMOVED", neighbor="n1")
    events = analyzer.analyze()
    types = [e.event_type for e in events]
    assert DetectionEventType.NEIGHBOR_APPEARED in types
    assert DetectionEventType.NEIGHBOR_DISAPPEARED in types


def test_duplicate_neighbor_added_only_reported_once():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.NEIGHBOR, "NEIGHBOR_ADDED", neighbor="n1")
    store.log(2.0, LogCategory.NEIGHBOR, "NEIGHBOR_SYM", neighbor="n1")
    events = analyzer.analyze()
    appeared = [e for e in events if e.event_type == DetectionEventType.NEIGHBOR_APPEARED]
    assert len(appeared) == 1


def test_drop_by_current_mpr_is_misbehavior():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["m"], previous=[])
    store.log(2.0, LogCategory.DROP, "FILTERED", culprit="m", reason="x")
    events = analyzer.analyze()
    misbehavior = [e for e in events if e.event_type == DetectionEventType.MPR_MISBEHAVIOR]
    assert len(misbehavior) == 1
    assert misbehavior[0].subject == "m"


def test_drop_by_non_mpr_is_not_misbehavior():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.DROP, "FILTERED", culprit="stranger")
    events = analyzer.analyze()
    assert not [e for e in events if e.event_type == DetectionEventType.MPR_MISBEHAVIOR]


def test_not_relayed_by_mpr_is_misbehavior():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["m"], previous=[])
    store.log(2.0, LogCategory.FORWARD, "NOT_RELAYED", culprit="m")
    events = analyzer.analyze()
    assert [e for e in events if e.event_type == DetectionEventType.MPR_MISBEHAVIOR]


def test_link_instability_detected_after_repeated_flaps():
    store, analyzer = make_analyzer()
    for i in range(4):
        store.log(float(i), LogCategory.LINK, "LINK_LOST", neighbor="n1")
    events = analyzer.analyze()
    instability = [e for e in events if e.event_type == DetectionEventType.LINK_INSTABILITY]
    assert len(instability) == 1


def test_link_flaps_outside_window_do_not_trigger():
    store, analyzer = make_analyzer()
    for i in range(4):
        store.log(float(i) * 100.0, LogCategory.LINK, "LINK_LOST", neighbor="n1")
    events = analyzer.analyze()
    assert not [e for e in events if e.event_type == DetectionEventType.LINK_INSTABILITY]


def test_analyze_is_incremental():
    store, analyzer = make_analyzer()
    store.log(1.0, LogCategory.NEIGHBOR, "NEIGHBOR_ADDED", neighbor="n1")
    first = analyzer.analyze()
    second = analyzer.analyze()
    assert len(first) == 1
    assert second == []
