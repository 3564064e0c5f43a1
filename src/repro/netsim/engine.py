"""Deterministic discrete-event simulation engine.

Events scheduled at the same simulated time are executed in the order they
were scheduled (FIFO on a monotonically increasing sequence number), which
keeps runs fully deterministic for a given seed and call sequence.

One heap of tuples
------------------
The queue is a single ``heapq`` of ``(time, sequence, callback, args,
handle)`` tuples.  Time and the unique sequence number settle every
comparison in C, so the callback, its arguments and the handle never take
part in ordering.  Keyword arguments are bound once, when an event is
scheduled, so executing an event is one ``callback(*args)`` call.

:meth:`Simulator.post` pushes with ``handle=None``: frame deliveries and
flood forwards are never cancelled.  :meth:`Simulator.schedule` and
:meth:`Simulator.schedule_at` return an :class:`EventHandle` (a cancel flag
plus the scheduled time), and :meth:`Simulator.schedule_periodic` returns
one handle for the whole chain.  A cancelled entry stays in the heap until
it reaches the head, where it is dropped and counted in
``cancelled_skipped``; the only cancellations left in a scenario are the
periodic chains of a stopped node, one queued entry each.

``tests/test_netsim_engine_parity.py`` pins the execution order, trace for
trace, to the heap engine kept in ``tests/reference/``.  After any ``run``,
``step`` or ``drain``, the counters (:meth:`Simulator.counters`) satisfy
``pushes == pops + cancelled_skipped + queued_entries``.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Iterator, Optional, Tuple

__all__ = ["EventHandle", "SimulationError", "Simulator"]

#: A queued event: ``(time, sequence, callback, args, handle)``.
Entry = Tuple[float, int, Callable[..., None], tuple, Optional["EventHandle"]]


class SimulationError(RuntimeError):
    """Raised when the engine is used incorrectly (e.g. scheduling in the past)."""


class EventHandle:
    """A cancel flag plus the scheduled time (for a periodic chain, the
    next firing).  A cancelled entry is skipped when it reaches the head of
    the heap; cancelling an event that already ran only sets the flag."""

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float) -> None:
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Discrete-event simulator on one heap of ``(time, sequence, ...)`` tuples.

    ``now`` is a plain attribute: read it, never assign it.

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

    def __init__(self) -> None:
        #: Current simulated time in seconds; a run starts at 0.
        self.now = 0.0
        self._queue: list = []
        #: Next sequence number; equals the number of pushes so far.
        self._sequence = 0
        self._processed = 0
        self._drained = 0
        self._stop_requested = False
        #: Cancelled entries dropped at the head of the heap.
        self.cancelled_skipped = 0

    # ------------------------------------------------------------------ state
    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of queued events that will actually execute."""
        return sum(1 for entry in self._queue
                   if entry[4] is None or not entry[4].cancelled)

    @property
    def queued_entries(self) -> int:
        """Raw queue occupancy, including cancelled entries not yet popped."""
        return len(self._queue)

    def counters(self) -> dict:
        """Events queued (``pushes``), taken off the queue to run or be
        drained (``pops``), and dropped cancelled (``cancelled_skipped``)."""
        return {
            "pushes": self._sequence,
            "pops": self._processed + self._drained,
            "cancelled_skipped": self.cancelled_skipped,
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
        if kwargs:
            callback, args = partial(callback, *args, **kwargs), ()
        time = self.now + delay
        handle = EventHandle(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (time, sequence, callback, args, handle))
        return handle

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, already at t={self.now:.6f}"
            )
        if kwargs:
            callback, args = partial(callback, *args, **kwargs), ()
        time = float(time)
        handle = EventHandle(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (time, sequence, callback, args, handle))
        return handle

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` without a handle, for events never cancelled
        (frame deliveries, flood forwards)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue, (self.now + delay, sequence, callback, args, None))

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

        ``jitter`` subtracts a uniform amount in ``[0, jitter)`` drawn from
        ``rng`` (required with jitter) from every period, as OLSR jitters
        its control traffic.  Returns one handle for the whole chain; its
        ``time`` tracks the next firing.  The next occurrence is scheduled
        after the callback returns, and only if the chain is not cancelled,
        so the callback may cancel its own chain.
        """
        if interval <= 0:
            raise SimulationError("periodic interval must be positive")
        if jitter and rng is None:
            raise SimulationError("jitter requires an explicit rng")
        if kwargs:
            callback, args = partial(callback, *args, **kwargs), ()
        first_delay = interval if start_delay is None else start_delay
        queue = self._queue

        def fire() -> None:
            callback(*args)
            if handle.cancelled:
                return
            delay = interval
            if jitter:
                # One draw, and the float ``rng.uniform(0.0, jitter)`` gives.
                delay -= jitter * rng.random()
                delay = max(delay, 1e-9)
            time = self.now + delay
            handle.time = time
            sequence = self._sequence
            self._sequence = sequence + 1
            heappush(queue, (time, sequence, fire, (), handle))

        time = self.now + max(first_delay, 0.0)
        handle = EventHandle(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(queue, (time, sequence, fire, (), handle))
        return handle

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until none is left at or before ``until``.

        ``max_events`` caps the events executed.  The clock is advanced to
        ``until`` only when no pending event at or before ``until`` remains,
        so a run cut short by :meth:`stop` or the cap never leaves events
        behind in the skipped past.
        """
        self._stop_requested = False
        queue = self._queue
        limit = inf if until is None else until
        cap = inf if max_events is None else max_events
        executed = 0
        while queue and not self._stop_requested:
            time, _, callback, args, handle = queue[0]
            if time > limit:
                break
            heappop(queue)
            if handle is not None and handle.cancelled:
                self.cancelled_skipped += 1
                continue
            self.now = time
            self._processed += 1
            callback(*args)
            executed += 1
            if executed >= cap:
                break
        if until is not None and self.now < until:
            next_time = self.peek_next_time()
            if next_time is None or next_time > until:
                self.now = until

    def _pop_live(self) -> Optional[Entry]:
        """Pop the next entry that is not cancelled, or ``None``."""
        queue = self._queue
        while queue:
            entry = heappop(queue)
            handle = entry[4]
            if handle is None or not handle.cancelled:
                return entry
            self.cancelled_skipped += 1
        return None

    def step(self) -> bool:
        """Execute the next non-cancelled event; ``False`` if there is none."""
        entry = self._pop_live()
        if entry is None:
            return False
        self.now = entry[0]
        self._processed += 1
        entry[2](*entry[3])
        return True

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    def peek_next_time(self) -> Optional[float]:
        """Return the time of the next pending event, skipping cancelled ones."""
        queue = self._queue
        while queue:
            handle = queue[0][4]
            if handle is None or not handle.cancelled:
                return queue[0][0]
            heappop(queue)
            self.cancelled_skipped += 1
        return None

    def drain(self) -> Iterator[Entry]:
        """Remove and yield every pending event, unrun, in execution order.

        Events are yielded as their ``(time, sequence, callback, args,
        handle)`` queue entries; cancelled entries are skipped."""
        while True:
            entry = self._pop_live()
            if entry is None:
                return
            self._drained += 1
            yield entry
