"""Tests for the trace recorder and statistics containers."""

from __future__ import annotations

import pytest

from repro.netsim.stats import MediumStatistics, NodeStatistics
from repro.netsim.trace import MAX_EVENTS, TraceEvent, TraceRecorder


def test_trace_records_and_iterates():
    trace = TraceRecorder()
    trace.record(1.0, "MSG", "a", "sent hello")
    trace.record(2.0, "MSG", "b", "received hello")
    assert len(trace) == 2
    assert [e.node for e in trace] == ["a", "b"]


def test_trace_by_category_and_node():
    trace = TraceRecorder()
    trace.record(1.0, "MSG", "a", "x")
    trace.record(2.0, "DETECT", "a", "y")
    trace.record(3.0, "MSG", "b", "z")
    assert len(trace.by_category("MSG")) == 2
    assert len(trace.filter(lambda event: event.node == "a")) == 2


def test_trace_between_time_window():
    trace = TraceRecorder()
    for t in (1.0, 2.0, 3.0, 4.0):
        trace.record(t, "C", "n", "e")
    assert len(trace.between(2.0, 3.0)) == 2


def test_trace_filter_predicate():
    trace = TraceRecorder()
    trace.record(1.0, "C", "n", "e", value=10)
    trace.record(2.0, "C", "n", "e", value=20)
    big = trace.filter(lambda e: e.data.get("value", 0) > 15)
    assert len(big) == 1


def test_trace_bounded_drops_oldest():
    trace = TraceRecorder()
    trace.extend([TraceEvent(0.0, "C", "n", "0")] * MAX_EVENTS)
    assert len(trace) == MAX_EVENTS
    trace.record(1.0, "C", "n", "1")
    trace.record(2.0, "C", "n", "2")
    assert len(trace) == MAX_EVENTS
    assert [e.description for e in trace.events[-3:]] == ["0", "1", "2"]
    trace.extend([TraceEvent(3.0, "C", "n", "3")] * 2)
    assert len(trace) == MAX_EVENTS
    assert [e.description for e in trace.events[-5:]] == ["0", "1", "2", "3", "3"]


def test_trace_subscribers_notified():
    trace = TraceRecorder()
    seen = []
    trace.subscribe(seen.append)
    event = trace.record(1.0, "C", "n", "e")
    assert seen == [event]


def test_trace_clear_and_extend():
    trace = TraceRecorder()
    trace.record(1.0, "C", "n", "e")
    trace.clear()
    assert len(trace) == 0
    trace.extend([TraceEvent(1.0, "C", "n", "e"), TraceEvent(2.0, "C", "n", "e")])
    assert len(trace) == 2


def test_medium_stats_ratios_zero_when_empty():
    stats = MediumStatistics()
    assert stats.delivery_ratio == 0.0
    assert stats.loss_ratio == 0.0


def test_medium_stats_ratios():
    stats = MediumStatistics(frames_delivered=8, frames_lost=1, frames_collided=1)
    assert stats.delivery_ratio == pytest.approx(0.8)
    assert stats.loss_ratio == pytest.approx(0.2)


def test_node_stats_per_type_counters():
    stats = NodeStatistics()
    stats.record_sent("HELLO")
    stats.record_sent("TC")
    stats.per_type_received["HELLO"] = 2  # as OlsrNode.handle_control counts
    assert stats.per_type_sent == {"HELLO": 1, "TC": 1}
    assert stats.per_type_received == {"HELLO": 2}
    assert stats.messages_received == 2
