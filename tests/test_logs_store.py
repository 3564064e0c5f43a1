"""Tests for the per-node log store."""

from __future__ import annotations

from repro.logs.analyzer import LogAnalyzer
from repro.logs.records import LogCategory
from repro.logs.store import LogStore


def make_store_with_records(count: int = 5) -> LogStore:
    store = LogStore("n1")
    for i in range(count):
        store.log(float(i), LogCategory.LINK, "LINK_SYM", neighbor=f"n{i}")
    return store


def test_log_appends_records():
    store = make_store_with_records(3)
    assert len(store) == 3
    assert store.records[0].node == "n1"


def test_by_category_and_event():
    store = LogStore("n1")
    store.log(0.0, LogCategory.LINK, "LINK_SYM", neighbor="a")
    store.log(1.0, LogCategory.MPR, "MPR_SELECTED", mpr="a")
    store.log(2.0, LogCategory.MPR, "MPR_REMOVED", mpr="a")
    assert len(store.by_category(LogCategory.MPR)) == 2
    assert len(store.by_event("MPR_SELECTED")) == 1


def test_between_and_where():
    store = make_store_with_records(10)
    assert len(store.between(2.0, 4.0)) == 3
    assert len(store.where(lambda r: r.get("neighbor") == "n7")) == 1


def test_last_records():
    store = make_store_with_records(5)
    assert [r.time for r in store.last(2)] == [3.0, 4.0]
    assert store.last(0) == []
    assert len(store.last(100)) == 5


def test_since_mark_and_advance():
    store = make_store_with_records(3)
    assert len(store.since_mark()) == 3
    store.advance_mark()
    assert store.since_mark() == []
    store.log(10.0, LogCategory.MPR, "MPR_SELECTED", mpr="x")
    assert len(store.since_mark()) == 1


def test_multiple_named_marks_are_independent():
    store = make_store_with_records(2)
    store.advance_mark("detector")
    store.log(5.0, LogCategory.LINK, "LINK_LOST", neighbor="a")
    assert len(store.since_mark("detector")) == 1
    assert len(store.since_mark("other")) == 3


def test_max_records_discards_oldest_and_shifts_marks():
    store = LogStore("n1", max_records=3)
    for i in range(3):
        store.log(float(i), LogCategory.LINK, "LINK_SYM", neighbor=f"n{i}")
    store.advance_mark()
    store.log(3.0, LogCategory.LINK, "LINK_SYM", neighbor="n3")
    store.log(4.0, LogCategory.LINK, "LINK_SYM", neighbor="n4")
    assert len(store) == 3
    # Only the records appended after the mark should be reported as new.
    new = store.since_mark()
    assert [r.get("neighbor") for r in new] == ["n3", "n4"]


def test_max_records_keeps_what_a_registered_reader_has_not_consumed():
    store = LogStore("n1", max_records=3)
    analyzer = LogAnalyzer(store)
    for i in range(5):
        store.log(float(i), LogCategory.NEIGHBOR, "NEIGHBOR_ADDED", neighbor=f"n{i}")
    assert [e.subject for e in analyzer.analyze()] == ["n0", "n1", "n2", "n3", "n4"]
    # Consumed records go again: the next append trims back to the bound.
    store.log(5.0, LogCategory.NEIGHBOR, "NEIGHBOR_ADDED", neighbor="n5")
    assert len(store) == 3
    assert [e.subject for e in analyzer.analyze()] == ["n5"]


def test_store_without_categories_records_only_subscriptions():
    store = LogStore("n1", categories=())
    assert store.log(0.0, LogCategory.LINK, "LINK_SYM", neighbor="a") is None
    store.subscribe("reader", (LogCategory.MPR,))
    store.log(1.0, LogCategory.LINK, "LINK_SYM", neighbor="a")
    store.log(2.0, LogCategory.MPR, "MPR_SELECTED", mpr="a")
    assert [r.event for r in store] == ["MPR_SELECTED"]
    assert LogCategory.MPR in store.recorded
    assert LogCategory.LINK not in store.recorded
    # A bare store keeps the full trail whoever subscribes.
    bare = make_store_with_records(2)
    bare.subscribe("reader", (LogCategory.MPR,))
    bare.log(3.0, LogCategory.LINK, "LINK_SYM", neighbor="b")
    assert len(bare) == 3


def test_dump_and_reload_text():
    store = make_store_with_records(4)
    text = store.dump_text()
    reloaded = LogStore.from_text("n1", text)
    assert len(reloaded) == 4
    assert reloaded.records[2].get("neighbor") == "n2"


def test_clear_resets_everything():
    store = make_store_with_records(4)
    store.advance_mark()
    store.clear()
    assert len(store) == 0
    assert store.since_mark() == []


def test_extend_preserves_order():
    source = make_store_with_records(3)
    target = LogStore("n1")
    target.extend(source.records)
    assert [r.time for r in target] == [0.0, 1.0, 2.0]
