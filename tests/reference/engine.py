"""The single-heap event engine: the ordering oracle of the engine parity suite."""

from __future__ import annotations

from heapq import heappop, heappush

from repro.netsim.engine import SimulationError


class _HeapEvent:
    """Event record of the classic single-heap engine (reference only)."""

    __slots__ = ("time", "sequence", "callback", "args", "kwargs", "cancelled")

    def __init__(self, time, sequence, callback, args, kwargs) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False

    def __lt__(self, other) -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)


class _HeapEventHandle:
    """Cancellation handle of the reference engine."""

    __slots__ = ("_event",)

    def __init__(self, event: _HeapEvent) -> None:
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        self._event.cancelled = True


class HeapSimulator:
    """One global heap of event objects compared by ``(time, sequence)``.

    ``tests/test_netsim_engine_parity.py`` pins the program engine's event
    order against it on randomised schedules, and it is the baseline of the
    engine benchmark in ``benchmarks/test_bench_olsr_scale.py``.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[_HeapEvent] = []
        self._sequence = 0
        self._processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return sum(1 for event in self._queue if not event.cancelled)

    def schedule(self, delay, callback, *args, **kwargs):
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(self, time, callback, *args, **kwargs):
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, already at t={self._now:.6f}"
            )
        event = _HeapEvent(float(time), self._sequence, callback, args, kwargs)
        self._sequence += 1
        heappush(self._queue, event)
        return _HeapEventHandle(event)

    def post(self, delay, callback, *args) -> None:
        self.schedule(delay, callback, *args)

    def schedule_periodic(self, interval, callback, *args,
                          start_delay=None, jitter=0.0, rng=None, **kwargs):
        if interval <= 0:
            raise SimulationError("periodic interval must be positive")
        if jitter and rng is None:
            raise SimulationError("jitter requires an explicit rng")
        first_delay = interval if start_delay is None else start_delay
        state = {"cancelled": False}

        def fire() -> None:
            if state["cancelled"]:
                return
            callback(*args, **kwargs)
            if state["cancelled"]:
                return
            delay = interval
            if jitter:
                delay -= rng.uniform(0.0, jitter)
                delay = max(delay, 1e-9)
            handle = self.schedule(delay, fire)
            chain._event = handle._event

        first = self.schedule(max(first_delay, 0.0), fire)
        chain = _HeapPeriodicHandle(first._event, state)
        return chain

    def run(self, until=None, max_events=None) -> None:
        executed = 0
        while self._queue:
            event = self._queue[0]
            if until is not None and event.time > until:
                break
            heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(*event.args, **event.kwargs)
            self._processed += 1
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        if until is not None and self._now < until:
            next_time = self.peek_next_time()
            if next_time is None or next_time > until:
                self._now = until

    def peek_next_time(self):
        while self._queue and self._queue[0].cancelled:
            heappop(self._queue)
        if not self._queue:
            return None
        return self._queue[0].time


class _HeapPeriodicHandle(_HeapEventHandle):
    """Periodic handle of the reference engine."""

    __slots__ = ("_state",)

    def __init__(self, event: _HeapEvent, state: dict) -> None:
        super().__init__(event)
        self._state = state

    @property
    def cancelled(self) -> bool:
        return self._state["cancelled"]

    def cancel(self) -> None:
        self._state["cancelled"] = True
        super().cancel()
