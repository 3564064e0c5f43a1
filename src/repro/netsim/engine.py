"""Deterministic discrete-event simulation engine.

Events scheduled at the same simulated time are executed in the order they
were scheduled (FIFO on a monotonically increasing sequence number), which
keeps runs fully deterministic for a given seed and call sequence.

Two-tier scheduler
------------------
The queue behind :class:`Simulator` is a *timer wheel* (a bucketed calendar
queue) backed by an overflow heap, replacing the single global ``heapq`` of
earlier revisions while preserving its ``(time, sequence)`` order exactly:

* **Wheel** — ``wheel_slots`` buckets of ``wheel_quantum`` simulated seconds
  each, covering a rolling horizon of ``wheel_slots * wheel_quantum`` seconds
  ahead of the current slot.  An event whose timestamp falls inside the
  horizon is pushed onto the small per-slot heap for its quantised slot.
  This is where the periodic control-plane traffic (HELLO/TC emission,
  mobility ticks, detection cycles, OLSR housekeeping) and the
  propagation-delay deliveries land: per-slot heaps stay tiny, so each
  push/pop costs O(log slot-occupancy) with cheap C-level tuple comparisons
  instead of O(log total-queue) comparisons on a dataclass.
* **Overflow heap** — events beyond the horizon (long warm-up timers,
  far-future attack activations).  Whenever the wheel pointer advances one
  slot the horizon grows by one quantum and any overflow event that now fits
  is migrated into its wheel slot, so an overflow event and a wheel event
  with equal timestamps still pop in sequence-number order: they meet in the
  same per-slot heap before either can execute.

Ordering guarantee: every structure orders entries by ``(time, sequence)``
and the wheel pointer never passes a non-empty slot, so the merged pop
sequence is identical to the classic single-heap engine — a property pinned
by ``tests/test_netsim_engine_parity.py`` against the heap engine kept in
``tests/reference/``.

Event records are pooled: a fixed-slot :class:`Event` is recycled through a
free list once executed (no per-event ``kwargs`` dict unless keyword
arguments are actually passed), and :class:`EventHandle` carries a
generation stamp so a handle to a recycled record never observes — or
cancels — the record's next life.  Cancelled events are skipped lazily on
pop, and a threshold-triggered compaction rewrites the queues when too many
cancelled entries accumulate, keeping cancellation-heavy runs (collision
models, torn-down periodic chains) bounded-memory.

The engine keeps throughput counters (``pushes``, ``pops``,
``cancelled_skipped``, ``wheel_hits``, ``compactions``) that the experiment
backends surface through run stats.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "Event",
    "EventHandle",
    "SimulationError",
    "Simulator",
]


class SimulationError(RuntimeError):
    """Raised when the engine is used incorrectly (e.g. scheduling in the past)."""


class Event:
    """A pooled event record.

    Queue entries are ``(time, sequence, event)`` tuples — the two leading
    numbers settle every comparison at C speed, the record itself never
    participates in ordering.  Records are recycled through the simulator's
    free list after execution; ``generation`` is bumped on each reuse so
    outstanding :class:`EventHandle` objects can detect that their event is
    over.  ``kwargs`` is ``None`` (not an empty dict) for the overwhelmingly
    common keyword-less case.
    """

    __slots__ = ("time", "sequence", "callback", "args", "kwargs",
                 "cancelled", "queued", "generation")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[..., None],
                 args: tuple = (), kwargs: Optional[dict] = None) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.queued = True
        self.generation = 0


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule` allowing cancellation.

    The handle snapshots the record's generation: once the event has
    executed (and the record possibly recycled for a later event), the
    handle keeps reporting the original scheduled time and its own
    cancellation state instead of leaking the record's next life.
    """

    __slots__ = ("_simulator", "_event", "_generation", "_time", "_cancelled")

    def __init__(self, simulator: "Simulator", event: Event) -> None:
        self._simulator = simulator
        self._event = event
        self._generation = event.generation
        self._time = event.time
        self._cancelled = False

    @property
    def time(self) -> float:
        """Scheduled execution time of the underlying event."""
        event = self._event
        if event.generation == self._generation:
            return event.time
        return self._time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        event = self._event
        if event.generation == self._generation:
            return event.cancelled
        return self._cancelled

    def cancel(self) -> None:
        """Cancel the event; it will be skipped when popped from the queue."""
        event = self._event
        if event.generation == self._generation and not event.cancelled:
            event.cancelled = True
            self._cancelled = True
            if event.queued:
                self._simulator._note_cancelled()
        elif event.generation == self._generation:
            self._cancelled = True


class Simulator:
    """Discrete-event simulator on a timer-wheel + overflow-heap queue.

    Parameters
    ----------
    start_time:
        Initial simulated clock value.
    wheel_quantum:
        Width of one wheel slot in simulated seconds.  The default (50 ms)
        keeps every periodic MANET interval (HELLO ~2 s, TC ~5 s, mobility
        1 s, detection cycles 10 s) comfortably inside the wheel horizon
        while propagation-delay deliveries (0.1 ms) stay in the current
        slot.
    wheel_slots:
        Number of slots; horizon = ``wheel_slots * wheel_quantum`` (12.8 s
        by default).  Events beyond the horizon wait in the overflow heap.
    compaction_threshold:
        Compact the queues once at least this many cancelled events are
        pending *and* they outnumber the live ones — bounds memory under
        cancellation-heavy workloads without ever rewriting queues on the
        steady-state path.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> sim.schedule(1.0, seen.append, "a")  # doctest: +ELLIPSIS
    <repro.netsim.engine.EventHandle object at ...>
    >>> sim.schedule(0.5, seen.append, "b")  # doctest: +ELLIPSIS
    <repro.netsim.engine.EventHandle object at ...>
    >>> sim.run()
    >>> seen
    ['b', 'a']
    """

    _POOL_LIMIT = 4096

    def __init__(
        self,
        start_time: float = 0.0,
        wheel_quantum: float = 0.05,
        wheel_slots: int = 256,
        compaction_threshold: int = 1024,
    ) -> None:
        if wheel_quantum <= 0:
            raise SimulationError("wheel_quantum must be positive")
        if wheel_slots < 2:
            raise SimulationError("wheel_slots must be at least 2")
        self._now = float(start_time)
        self._quantum = float(wheel_quantum)
        self._wheel_size = int(wheel_slots)
        self._wheel: list[list] = [[] for _ in range(self._wheel_size)]
        #: Absolute slot index (``floor(time / quantum)``) the pointer is on.
        self._wheel_slot = int(self._now // self._quantum)
        self._wheel_count = 0
        self._overflow: list = []
        self._sequence = 0
        self._queued = 0            # entries in wheel + overflow, incl. cancelled
        self._cancelled_pending = 0  # cancelled entries still queued
        self.compaction_threshold = int(compaction_threshold)
        self._pool: list[Event] = []
        self._processed = 0
        self._running = False
        self._stop_requested = False
        # ------------------------------------------------- throughput counters
        #: Events pushed (wheel or overflow) since construction.
        self.pushes = 0
        #: Live events popped and executed.
        self.pops = 0
        #: Cancelled events lazily discarded on pop.
        self.cancelled_skipped = 0
        #: Pushes that landed directly in the wheel (vs the overflow heap).
        self.wheel_hits = 0
        #: Threshold-triggered queue compactions.
        self.compactions = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of queued events that will actually execute."""
        return self._queued - self._cancelled_pending

    @property
    def queued_entries(self) -> int:
        """Raw queue occupancy including not-yet-compacted cancelled events."""
        return self._queued

    def counters(self) -> dict:
        """Engine throughput counters, for run stats and benchmarks."""
        return {
            "pushes": self.pushes,
            "pops": self.pops,
            "cancelled_skipped": self.cancelled_skipped,
            "wheel_hits": self.wheel_hits,
            "compactions": self.compactions,
        }

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        event = self._push(self._now + delay, callback, args, kwargs or None)
        return EventHandle(self, event)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        event = self._push(time, callback, args, kwargs or None)
        return EventHandle(self, event)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` without materialising an EventHandle.

        Hot-path variant of :meth:`schedule` for fire-and-forget events
        (frame deliveries, flood forwards) whose handle would be discarded
        anyway; scheduling semantics and ordering are identical.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        self._push(self._now + delay, callback, args, None)

    def _push(self, time: float, callback: Callable[..., None],
              args: tuple, kwargs: Optional[dict]) -> Event:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, already at t={self._now:.6f}"
            )
        time = float(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.sequence = sequence
            event.callback = callback
            event.args = args
            event.kwargs = kwargs
            event.cancelled = False
            event.queued = True
        else:
            event = Event(time, sequence, callback, args, kwargs)
        slot = int(time // self._quantum)
        base = self._wheel_slot
        if slot < base:
            # ``time`` is inside the slot currently being drained (the clock
            # sits mid-slot); the per-slot heap restores (time, seq) order.
            slot = base
        if slot - base < self._wheel_size:
            heappush(self._wheel[slot % self._wheel_size],
                     (time, sequence, event))
            self._wheel_count += 1
            self.wheel_hits += 1
        else:
            heappush(self._overflow, (time, sequence, event))
        self._queued += 1
        self.pushes += 1
        return event

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[..., None],
        *args: Any,
        start_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``callback`` every ``interval`` seconds.

        ``jitter`` (if non-zero) subtracts a uniform random amount in
        ``[0, jitter)`` from every period, mimicking the emission jitter that
        OLSR applies to its control traffic.  A ``rng`` (``random.Random``)
        must be supplied when jitter is used, to keep runs deterministic.

        Returns a handle that always tracks the chain's *next* firing (its
        ``time`` advances as occurrences execute); cancelling it stops the
        whole chain, including from inside the callback itself — in that
        case no further occurrence is scheduled, so no ghost event lingers
        in the queue.
        """
        if interval <= 0:
            raise SimulationError("periodic interval must be positive")
        if jitter and rng is None:
            raise SimulationError("jitter requires an explicit rng")
        first_delay = interval if start_delay is None else start_delay

        def fire() -> None:
            if chain._chain_cancelled:
                return
            callback(*args, **kwargs)
            if chain._chain_cancelled:
                # The callback cancelled the chain: scheduling the next
                # occurrence anyway would leave a live no-op event behind
                # and make the handle report a phantom next firing.
                return
            delay = interval
            if jitter:
                delay -= rng.uniform(0.0, jitter)
                delay = max(delay, 1e-9)
            next_event = self._push(self._now + delay, fire, (), None)
            chain._retarget(next_event)

        first = self._push(self._now + max(first_delay, 0.0), fire, (), None)
        chain = _PeriodicHandle(self, first)
        return chain

    # ---------------------------------------------------------- queue internals
    def _note_cancelled(self) -> None:
        """Bookkeeping for a cancellation of a still-queued event."""
        self._cancelled_pending += 1
        if (self._cancelled_pending >= self.compaction_threshold
                and self._cancelled_pending * 2 >= self._queued):
            self._compact()

    def _discard(self, event: Event) -> None:
        """Drop a cancelled entry encountered at a queue head."""
        self._queued -= 1
        self._cancelled_pending -= 1
        self.cancelled_skipped += 1
        self._recycle(event)

    def _recycle(self, event: Event) -> None:
        event.generation += 1
        event.queued = False
        event.callback = None  # type: ignore[assignment]
        event.args = ()
        event.kwargs = None
        pool = self._pool
        if len(pool) < self._POOL_LIMIT:
            pool.append(event)

    def _compact(self) -> None:
        """Rewrite every queue without its cancelled entries."""
        removed = 0
        for index, slot in enumerate(self._wheel):
            if not slot:
                continue
            kept = [entry for entry in slot if not entry[2].cancelled]
            dropped = len(slot) - len(kept)
            if dropped:
                for entry in slot:
                    if entry[2].cancelled:
                        self._recycle(entry[2])
                heapify(kept)
                self._wheel[index] = kept
                self._wheel_count -= dropped
                removed += dropped
        if self._overflow:
            kept = [entry for entry in self._overflow if not entry[2].cancelled]
            dropped = len(self._overflow) - len(kept)
            if dropped:
                for entry in self._overflow:
                    if entry[2].cancelled:
                        self._recycle(entry[2])
                heapify(kept)
                self._overflow = kept
                removed += dropped
        self._queued -= removed
        self._cancelled_pending -= removed
        self.compactions += 1

    def _migrate_overflow(self) -> None:
        """Pull overflow events that now fit inside the wheel horizon."""
        overflow = self._overflow
        if not overflow:
            return
        horizon = (self._wheel_slot + self._wheel_size) * self._quantum
        base = self._wheel_slot
        size = self._wheel_size
        while overflow and overflow[0][0] < horizon:
            entry = heappop(overflow)
            slot = int(entry[0] // self._quantum)
            if slot < base:
                slot = base
            heappush(self._wheel[slot % size], entry)
            self._wheel_count += 1

    def _next_entry(self):
        """The globally next live ``(time, seq, event)`` entry, or ``None``.

        Advances the wheel pointer across empty slots (migrating overflow
        events as the horizon grows) and lazily discards cancelled entries
        found at slot heads.  The returned entry is left at the head of the
        current slot's heap; ``_pop_current`` removes it.
        """
        wheel = self._wheel
        size = self._wheel_size
        while True:
            if self._wheel_count:
                slot = wheel[self._wheel_slot % size]
                if slot:
                    entry = slot[0]
                    if entry[2].cancelled:
                        heappop(slot)
                        self._wheel_count -= 1
                        self._discard(entry[2])
                        continue
                    return entry
                self._wheel_slot += 1
                self._migrate_overflow()
                continue
            if self._overflow:
                # Wheel drained: jump the pointer straight to the overflow
                # head's slot instead of stepping one quantum at a time.
                target = int(self._overflow[0][0] // self._quantum)
                if target > self._wheel_slot:
                    self._wheel_slot = target
                self._migrate_overflow()
                continue
            return None

    def _pop_current(self, entry) -> None:
        """Remove ``entry`` (the value `_next_entry` just returned)."""
        slot = self._wheel[self._wheel_slot % self._wheel_size]
        heappop(slot)
        self._wheel_count -= 1
        self._queued -= 1
        self.pops += 1

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would occur strictly after this time.
            The clock is advanced to ``until`` only when no pending event at
            or before ``until`` remains — i.e. not when the loop exits early
            via :meth:`stop` or the ``max_events`` cap, which would otherwise
            leave events scheduled in the (now skipped) past and make a
            subsequent ``run`` execute them at ``event.time < now``.
        max_events:
            Safety cap on the number of executed events.
        """
        self._running = True
        self._stop_requested = False
        executed = 0
        wheel = self._wheel
        size = self._wheel_size
        pool = self._pool
        pool_limit = self._POOL_LIMIT
        try:
            while not self._stop_requested:
                # Hot path: the current slot has a live event at its head.
                slot = wheel[self._wheel_slot % size]
                if slot:
                    entry = slot[0]
                    event = entry[2]
                    if event.cancelled:
                        heappop(slot)
                        self._wheel_count -= 1
                        self._discard(event)
                        continue
                    if until is not None and entry[0] > until:
                        break
                    heappop(slot)
                    self._wheel_count -= 1
                else:
                    entry = self._next_entry()
                    if entry is None:
                        break
                    if until is not None and entry[0] > until:
                        break
                    event = entry[2]
                    heappop(wheel[self._wheel_slot % size])
                    self._wheel_count -= 1
                self._queued -= 1
                self.pops += 1
                callback = event.callback
                args = event.args
                kwargs = event.kwargs
                # Recycle before the callback runs: the generation bump means
                # any outstanding handle sees the event as over, so reuse by
                # events the callback itself schedules is safe.
                event.generation += 1
                event.queued = False
                event.callback = None  # type: ignore[assignment]
                event.args = ()
                event.kwargs = None
                if len(pool) < pool_limit:
                    pool.append(event)
                self._now = entry[0]
                if kwargs:
                    callback(*args, **kwargs)
                else:
                    callback(*args)
                self._processed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            if until is not None and self._now < until:
                next_time = self.peek_next_time()
                if next_time is None or next_time > until:
                    self._now = until
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns ``True`` if an event was executed, ``False`` if the queue was
        empty.
        """
        entry = self._next_entry()
        if entry is None:
            return False
        self._pop_current(entry)
        event = entry[2]
        callback = event.callback
        args = event.args
        kwargs = event.kwargs
        self._recycle(event)
        self._now = entry[0]
        if kwargs:
            callback(*args, **kwargs)
        else:
            callback(*args)
        self._processed += 1
        return True

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    def peek_next_time(self) -> Optional[float]:
        """Return the time of the next pending event, skipping cancelled ones."""
        entry = self._next_entry()
        if entry is None:
            return None
        return entry[0]

    def drain(self) -> Iterator[Event]:
        """Remove and yield every pending event without executing it.

        Yielded records leave the engine's ownership (they are not recycled
        into the pool), so callers may inspect ``time``/``callback``/``args``
        at leisure.
        """
        while True:
            entry = self._next_entry()
            if entry is None:
                return
            self._pop_current(entry)
            entry[2].queued = False
            yield entry[2]


class _PeriodicHandle(EventHandle):
    """Handle for periodic schedules; cancelling stops future occurrences.

    The handle is re-targeted at each occurrence's successor *after* the
    callback ran (scheduling order — and therefore sequence numbers and
    traces — match the one-shot chain exactly), so ``time`` always reports
    the next firing.
    """

    __slots__ = ("_chain_cancelled",)

    def __init__(self, simulator: Simulator, event: Event) -> None:
        super().__init__(simulator, event)
        self._chain_cancelled = False

    def _retarget(self, event: Event) -> None:
        self._event = event
        self._generation = event.generation
        self._time = event.time

    @property
    def cancelled(self) -> bool:
        return self._chain_cancelled

    def cancel(self) -> None:
        self._chain_cancelled = True
        super().cancel()
