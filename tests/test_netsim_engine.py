"""Tests for the discrete-event engine."""

from __future__ import annotations

import random

import pytest

from repro.netsim.engine import SimulationError, Simulator
from tests.reference import HeapSimulator


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "late")
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(3.0, seen.append, "last")
    sim.run()
    assert seen == ["early", "late", "last"]


def test_simultaneous_events_run_in_scheduling_order():
    sim = Simulator()
    seen = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, seen.append, label)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(0.5, lambda: times.append(sim.now))
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [0.5, 1.5]
    assert sim.now == 1.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(5.0, seen.append, "b")
    sim.run(until=2.0)
    assert seen == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert seen == ["a", "b"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "cancelled")
    sim.schedule(2.0, seen.append, "kept")
    handle.cancel()
    sim.run()
    assert seen == ["kept"]
    assert handle.cancelled


def test_step_executes_single_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    assert sim.step() is True
    assert seen == ["a"]
    assert sim.step() is True
    assert sim.step() is False
    assert seen == ["a", "b"]


def test_stop_interrupts_run():
    sim = Simulator()
    seen = []

    def stopper():
        seen.append("stop")
        sim.stop()

    sim.schedule(1.0, stopper)
    sim.schedule(2.0, seen.append, "never")
    sim.run()
    assert seen == ["stop"]
    assert sim.pending_events == 1


def test_periodic_schedule_repeats():
    sim = Simulator()
    ticks = []
    sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_periodic_schedule_with_start_delay():
    sim = Simulator()
    ticks = []
    sim.schedule_periodic(2.0, lambda: ticks.append(sim.now), start_delay=0.5)
    sim.run(until=6.0)
    assert ticks == [0.5, 2.5, 4.5]


def test_periodic_cancel_stops_future_occurrences():
    sim = Simulator()
    ticks = []
    handle = sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
    sim.run(until=2.5)
    handle.cancel()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]


def test_periodic_with_jitter_requires_rng():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_periodic(1.0, lambda: None, jitter=0.2)


def test_periodic_with_jitter_fires_no_later_than_interval():
    sim = Simulator()
    ticks = []
    sim.schedule_periodic(1.0, lambda: ticks.append(sim.now),
                          jitter=0.25, rng=random.Random(3))
    sim.run(until=10.0)
    assert len(ticks) >= 10
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    assert all(0.74 <= gap <= 1.0 + 1e-9 for gap in gaps)


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek_next_time() == 2.0


def test_peek_next_time_empty_queue():
    sim = Simulator()
    assert sim.peek_next_time() is None


def test_processed_events_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_max_events_limit():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(float(i), seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_drain_returns_pending_events_without_running():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    drained = list(sim.drain())
    assert len(drained) == 2
    assert sim.pending_events == 0


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def chain(depth: int):
        seen.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_stop_does_not_jump_clock_past_pending_events():
    """Regression: run(until=...) interrupted by stop() must not advance the
    clock beyond events still pending before ``until`` — doing so made a
    subsequent run execute events at event.time < now (time moving backwards).
    """
    sim = Simulator()
    times = []

    def stopper():
        times.append(sim.now)
        sim.stop()

    sim.schedule(1.0, stopper)
    sim.schedule(2.0, lambda: times.append(sim.now))
    sim.run(until=10.0)
    assert sim.now == 1.0  # not jumped to 10.0
    sim.run(until=10.0)
    assert times == [1.0, 2.0]
    assert sim.now == 10.0


def test_max_events_does_not_jump_clock_past_pending_events():
    sim = Simulator()
    times = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, times.append, t)
    sim.run(until=5.0, max_events=1)
    assert sim.now == 1.0
    sim.run(until=5.0)
    assert times == [1.0, 2.0, 3.0]
    assert sim.now == 5.0


def test_run_until_still_advances_clock_when_drained():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0


# ------------------------------------------------------------- heap core

def test_post_is_equivalent_to_schedule_without_handle():
    sim = Simulator()
    seen = []
    sim.post(2.0, seen.append, "late")
    sim.post(1.0, seen.append, "early")
    sim.run()
    assert seen == ["early", "late"]
    assert sim.processed_events == 2


def test_pending_events_excludes_cancelled():
    """Regression: ``pending_events`` used to count cancelled-but-unpopped
    events, overstating remaining work to stats and ``peek_next_time``
    callers."""
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for handle in handles[:7]:
        handle.cancel()
    assert sim.pending_events == 3
    assert sim.queued_entries == 10  # cancelled entries wait for their pop


def test_counters_track_pushes_pops_and_cancelled_skips():
    sim = Simulator()
    kept = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
    doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
    for handle in doomed:
        handle.cancel()
    sim.run()
    assert sim.counters() == {"pushes": 16, "pops": 8, "cancelled_skipped": 8}
    assert sim.processed_events == 8
    assert sim.queued_entries == 0
    assert not any(handle.cancelled for handle in kept)


def test_equal_timestamp_fifo_across_wheel_and_overflow_boundary():
    """An event scheduled long before its time and same-time events
    scheduled after the clock moved still run in scheduling order (the
    boundary the name recalls was the timer wheel's horizon)."""
    sim = Simulator()
    seen = []
    sim.schedule_at(20.0, seen.append, "overflow-first")
    sim.run(until=10.0)
    sim.schedule_at(20.0, seen.append, "wheel-second")     # same timestamp
    sim.schedule_at(20.0, seen.append, "wheel-third")
    sim.run()
    assert seen == ["overflow-first", "wheel-second", "wheel-third"]
    assert sim.now == 20.0


def test_until_and_max_events_interplay_after_wheel_rollover():
    """``until`` and ``max_events`` across 30 events (several turns of the
    timer wheel this was written for)."""
    sim = Simulator()
    times = []
    for i in range(1, 31):
        sim.schedule_at(float(i), times.append, i)
    sim.run(until=15.5, max_events=10)
    assert times == list(range(1, 11))
    assert sim.now == 10.0                             # not jumped to until
    sim.run(until=15.5)
    assert times == list(range(1, 16))
    assert sim.now == 15.5
    sim.run()
    assert times == list(range(1, 31))
    assert sim.now == 30.0


def test_drain_yields_pending_events_in_time_sequence_order():
    sim = Simulator()
    order = [2.5, 0.5, 9.0, 2.5, 6.0, 0.5, 30.0]
    handles = [sim.schedule_at(t, lambda: None) for t in order]
    handles[3].cancel()                                # drop one duplicate
    drained = [(entry[0], entry[1]) for entry in sim.drain()]
    assert drained == sorted(drained)                  # (time, seq) order
    assert drained == sorted((t, i) for i, t in enumerate(order) if i != 3)
    assert sim.pending_events == 0
    assert sim.peek_next_time() is None
    assert sim.counters() == {"pushes": 7, "pops": 6, "cancelled_skipped": 1}


def test_keyword_arguments_are_bound_when_scheduled():
    sim = Simulator()
    seen = []

    def record(label, *, suffix):
        seen.append((sim.now, label + suffix))

    sim.schedule(1.0, record, "a", suffix="!")
    sim.schedule_at(2.0, record, "b", suffix="?")
    sim.schedule_periodic(1.5, record, "p", suffix=".", start_delay=0.5)
    sim.run(until=2.5)
    assert seen == [(0.5, "p."), (1.0, "a!"), (2.0, "b?"), (2.0, "p.")]


def test_periodic_handle_time_tracks_next_firing():
    """Regression for the chain re-pointing bug: ``EventHandle.time`` on a
    periodic handle must always report the *next* firing."""
    sim = Simulator()
    handle = sim.schedule_periodic(1.0, lambda: None)
    assert handle.time == 1.0
    sim.run(until=3.5)
    assert handle.time == 4.0
    sim.run(until=7.2)
    assert handle.time == 8.0
    assert not handle.cancelled


def test_periodic_cancel_after_n_firings_leaves_no_ghost_event():
    """Cancelling from inside the Nth firing used to leave one live no-op
    event queued (and the handle claiming a phantom next firing)."""
    sim = Simulator()
    ticks = []
    handles = {}

    def tick():
        ticks.append(sim.now)
        if len(ticks) == 3:
            handles["chain"].cancel()

    handles["chain"] = sim.schedule_periodic(1.0, tick)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]
    assert handles["chain"].cancelled
    assert sim.pending_events == 0
    assert sim.peek_next_time() is None


def test_periodic_cancel_between_firings_on_heap_reference_engine():
    sim = HeapSimulator()
    ticks = []
    handle = sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
    sim.run(until=2.5)
    assert handle.time == 3.0
    handle.cancel()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
    assert handle.cancelled


def test_heap_reference_engine_matches_basic_semantics():
    sim = HeapSimulator()
    seen = []
    sim.post(2.0, seen.append, "late")
    handle = sim.schedule(1.0, seen.append, "early")
    doomed = sim.schedule(1.5, seen.append, "never")
    doomed.cancel()
    sim.run()
    assert seen == ["early", "late"]
    assert handle.time == 1.0
    assert sim.pending_events == 0
