"""Run one workload in this (fresh) process and print its measurements.

``run.py`` starts this script; run it by hand only to debug one workload::

    python3 perfbench/worker.py --workload dense-static --seed 1 --seconds 25

With ``--probe`` it only measures set-up: process start to the first
simulated event or first cell.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "digests.json"

#: Seconds between host-speed samples in the timed loop.
HOST_SAMPLE_INTERVAL_S = 0.1
#: Host speed 1.0 is a host that runs :func:`reference_work` in this many
#: seconds.  It is a definition, not a measurement: it only scales
#: ``throughput``, identically on every commit.
HOST_REFERENCE_S = 0.001

_REFERENCE_TABLE = tuple({"next": (i * 37 + 5) % 64, "weight": float(i)} for i in range(64))


def _reference_step(entry: dict, total: float) -> float:
    return total + entry["weight"] * 0.5 + len(entry)


def reference_work(steps: int = 3000) -> float:
    """A fixed slice of interpreter work: dict lookups, calls, float sums.

    Its table stays in cache, so nothing the program does to memory can
    slow it down; only the host can.
    """
    table, node, total = _REFERENCE_TABLE, 0, 0.0
    for _ in range(steps):
        entry = table[node]
        node = entry["next"]
        total = _reference_step(entry, total)
    return total


class HostSpeed:
    """How fast the shared host ran Python during the timed loop.

    Other tenants slow the reference box by up to 1.7x for seconds at a
    time, so work per host second moved 18-26% between runs of the same
    code (NOTES.md).  While active, a SIGALRM handler times
    :func:`reference_work` every ``HOST_SAMPLE_INTERVAL_S``; the mean of
    ``HOST_REFERENCE_S`` over each sample's duration is the host's speed.
    ``spent`` is the handler's own time, which the operations exclude.
    """

    def __init__(self) -> None:
        self.speeds: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection the program's garbage is due stays in its time
        started = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - started
        if collecting:
            gc.enable()
        self.speeds.append(HOST_REFERENCE_S / elapsed)
        self.spent += elapsed

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, HOST_SAMPLE_INTERVAL_S, HOST_SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean host speed over the samples."""
        return statistics.fmean(self.speeds)


def load_pins(workload: str, seed: int) -> Optional[List[str]]:
    """Pinned operation digests for ``workload`` at ``seed``, if any."""
    pinned = json.loads(PINS.read_text()).get(workload)
    if pinned is None or pinned["seed"] != seed:
        return None
    return pinned["digests"]


class Checker:
    """Times operations and counts failures.

    An operation fails when it raises, reports a validation issue, or its
    digest differs from the pinned one or from its own first execution in
    this process.
    """

    def __init__(self, pins: Optional[Sequence[str]],
                 host: Optional[HostSpeed] = None) -> None:
        self.pins = pins
        self.host = host
        self.first: Dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        #: Work done and seconds spent in timed operations (set-up included,
        #: host-speed samples excluded).
        self.work = 0
        self.busy = 0.0
        self.errors: List[str] = []
        self._ops_per_input = 1

    def run(self, workload, inputs, index: int, tracer=None) -> None:
        """Execute operation ``index``, set-up included, on a collected heap.

        The collection runs before the operation's clock starts, so one
        operation's garbage does not bill the next.
        """
        gc.collect()
        if tracer is not None:
            tracer.start()
        sampled = self.host.spent if self.host is not None else 0.0
        started = time.perf_counter()
        try:
            result = workload.execute(workload.setup(inputs[index % len(inputs)]))
        except Exception as error:  # one broken operation must not end the run
            self.attempted += self._ops_per_input
            self.failed += self._ops_per_input
            self.errors.append(f"op {index}: {type(error).__name__}: {error}")
            return
        finally:
            self.busy += time.perf_counter() - started
            if self.host is not None:
                self.busy -= self.host.spent - sampled
            if tracer is not None:
                tracer.stop()
        self.work += result.work
        self.record(index % len(inputs), result)

    def record(self, key: int, result) -> None:
        """Check one operation's output (timed or not)."""
        self._ops_per_input = result.ops
        self.attempted += result.ops
        reference = self.first.setdefault(key, result.digest)
        pinned = self.pins[key] if self.pins is not None and key < len(self.pins) else None
        if result.digest != reference or (pinned is not None and result.digest != pinned):
            self.failed += result.ops
            self.errors.append(f"op {key}: digest {result.digest[:12]} differs from "
                               f"{(pinned or reference)[:12]}")
        else:
            self.failed += result.issues
            if result.issues:
                self.errors.append(f"op {key}: {result.issues} validation issue(s)")


def measure(workload, seed: int, seconds: float, pins=None, trace: bool = False,
            hooks=None, spawned_at: Optional[float] = None, import_s: float = 0.0) -> dict:
    """Warm up, run the closed loop for ``seconds``, optionally replay it traced."""
    selecting = time.monotonic()
    inputs = workload.inputs(seed)
    selecting = time.monotonic() - selecting  # the benchmark's own work, not set-up
    prepared = workload.setup(inputs[0])
    setup_s = time.monotonic() - spawned_at - selecting if spawned_at is not None else None
    # Warm-up: operation 0, untimed but checked.  The timed loop starts
    # with it again, so every run checks one repeat against its first digest.
    host = HostSpeed()
    checker = Checker(pins, host)
    try:
        checker.record(0, workload.execute(prepared))
    except Exception as error:
        checker.attempted += 1
        checker.failed += 1
        checker.errors.append(f"warm-up: {type(error).__name__}: {error}")
    del prepared  # a live warm-up scenario would inflate the timed heap

    executed: List[int] = []
    started = time.perf_counter()
    with host:
        while True:
            checker.run(workload, inputs, len(executed))
            executed.append(len(executed))
            wall = time.perf_counter() - started
            if wall >= seconds:
                break
    out = {
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": wall,
        "busy_s": checker.busy,
        "host_speed": host.speed(),
        "host_samples": len(host.speeds),
        "work": checker.work,
        "work_unit": workload.work_unit,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        out["trace"] = _traced_replay(workload, inputs, executed, checker, hooks, import_s)
    return out


def _traced_replay(workload, inputs, executed, checker, hooks, import_s) -> dict:
    """Re-run the timed operations under the tracer and report per layer.

    The tracer accounts only the operations themselves, as ``busy_s`` does
    for the untraced loop; the difference is the tracing overhead.
    """
    import tracer as tracing

    tracer = tracing.Tracer(hooks if hooks is not None else tracing.HOOKS)
    replay = Checker(None)
    replay.first = checker.first
    tracer.install()
    try:
        for index in executed:
            replay.run(workload, inputs, index, tracer=tracer)
    finally:
        tracer.uninstall()
    balanced = abs(tracer.accounted() - tracer.wall) <= 1e-6 * max(tracer.wall, 1.0)
    return {
        "metrics": tracing.layer_metrics(tracer, import_s, checker.busy),
        "unmeasured": tracer.unmeasured,
        "accounting_ok": balanced,
        "digests_match": replay.failed == 0 and not replay.errors,
        "errors": replay.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before it started "
                             "this process (set-up is timed from there)")
    parser.add_argument("--probe", action="store_true",
                        help="measure set-up only")
    parser.add_argument("--toy", action="store_true",
                        help="shrink every workload to a few seconds (tests)")
    args = parser.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at

    started = time.monotonic()
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (timed: the package import is part of set-up)
    import_s = time.monotonic() - started

    from workloads import build_workloads

    workload = build_workloads(toy=args.toy)[args.workload]
    if args.probe:
        selecting = time.monotonic()
        first = workload.inputs(args.seed, count=1)[0]
        selecting = time.monotonic() - selecting  # the benchmark's own work, not set-up
        workload.probe(first)
        print(json.dumps({"setup_s": time.monotonic() - spawned_at - selecting}))
        return 0
    pins = None if args.toy else load_pins(args.workload, args.seed)
    result = measure(workload, args.seed, args.seconds, pins=pins,
                     trace=bool(args.trace), spawned_at=spawned_at, import_s=import_s)
    result["pinned"] = pins is not None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
