"""Tests for the local (log-based) detector."""

from __future__ import annotations

from repro.core.detector import LocalDetector
from repro.core.evidence import EvidenceType
from repro.logs.analyzer import LogAnalyzer
from repro.logs.records import LogCategory
from repro.logs.store import LogStore


def make_detector(sole_provider_oracle=None):
    store = LogStore("me")
    analyzer = LogAnalyzer(store)
    detector = LocalDetector(analyzer, sole_provider_oracle=sole_provider_oracle)
    return store, detector


def log_mpr_replacement(store, old="old", new="new", time=5.0):
    store.log(time, LogCategory.MPR, "MPR_SET_CHANGED", mprs=[new], previous=[old])


def test_mpr_replacement_triggers_investigation_with_e1():
    store, detector = make_detector()
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["old"], previous=[])
    detector.scan()
    log_mpr_replacement(store)
    triggers = detector.scan()
    assert len(triggers) == 1
    trigger = triggers[0]
    assert trigger.suspect == "new"
    assert trigger.replaced_mprs == ["old"]
    assert any(e.evidence_type == EvidenceType.E1_MPR_REPLACED for e in trigger.evidences)


def test_mpr_misbehavior_triggers_investigation_with_e2():
    store, detector = make_detector()
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["m"], previous=[])
    detector.scan()
    store.log(2.0, LogCategory.FORWARD, "NOT_RELAYED", culprit="m")
    triggers = detector.scan()
    assert len(triggers) == 1
    assert triggers[0].suspect == "m"
    assert any(e.evidence_type == EvidenceType.E2_MPR_MISBEHAVIOR
               for e in triggers[0].evidences)


def test_mpr_advertisement_change_treated_as_e2():
    store, detector = make_detector()
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["m"], previous=[])
    store.log(1.5, LogCategory.MESSAGE_RX, "HELLO", origin="m", sym_neighbors=["a"])
    detector.scan()
    store.log(2.0, LogCategory.MESSAGE_RX, "HELLO", origin="m", sym_neighbors=["a", "victim2"])
    triggers = detector.scan()
    assert len(triggers) == 1
    assert triggers[0].suspect == "m"
    assert triggers[0].contested_links == ["victim2"]


def test_advertisement_change_by_non_mpr_is_ignored():
    store, detector = make_detector()
    store.log(1.0, LogCategory.MESSAGE_RX, "HELLO", origin="stranger", sym_neighbors=["a"])
    detector.scan()
    store.log(2.0, LogCategory.MESSAGE_RX, "HELLO", origin="stranger", sym_neighbors=["a", "b"])
    assert detector.scan() == []


def test_e3_attached_when_oracle_reports_isolated_nodes():
    store, detector = make_detector(sole_provider_oracle=lambda suspect: {"lonely"})
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["old"], previous=[])
    detector.scan()
    log_mpr_replacement(store)
    triggers = detector.scan()
    e3 = [e for e in triggers[0].evidences if e.evidence_type == EvidenceType.E3_SOLE_PROVIDER]
    assert len(e3) == 1
    assert e3[0].details["isolated_node"] == "lonely"


def test_no_trigger_without_relevant_events():
    store, detector = make_detector()
    store.log(1.0, LogCategory.MESSAGE_RX, "HELLO", origin="n1", sym_neighbors=["a"])
    store.log(2.0, LogCategory.LINK, "LINK_SYM", neighbor="n1")
    assert detector.scan() == []


def test_scan_is_incremental():
    store, detector = make_detector()
    store.log(1.0, LogCategory.MPR, "MPR_SET_CHANGED", mprs=["old"], previous=[])
    detector.scan()
    log_mpr_replacement(store)
    assert len(detector.scan()) == 1
    assert detector.scan() == []  # nothing new
