"""Outside-in span tracer: splits a run's wall-clock across the program's layers.

The tracer wraps public functions of the program from the benchmark's own
files; nothing under ``src/`` knows about it.  Each wrapped call is a span
labelled with its layer.  A span's self time is its duration minus its
child spans and minus the GC pauses inside it, so the self times of every
label, the GC pauses and the time outside any hooked call ("unattributed")
add up to the traced wall-clock exactly.

The engine dispatches some callbacks itself (medium delivery, HELLO/TC
emission, housekeeping, mobility ticks).  Those are attributed to the
module that owns the callback by wrapping each callback handed to
``Simulator.schedule``, ``schedule_at``, ``post`` and ``schedule_periodic``.

Hook points are looked up by name.  A missing one marks the layers it
serves ``unmeasured`` instead of failing, so a later deletion in the
program cannot break the benchmark.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Trust-manager slots at or above this many subjects take the vectorised
#: Eq. 5 path; ``trust.wide_updates`` counts them.
WIDE_TRUST_SUBJECTS = 16

#: Owner module of a scheduled callback -> layer label (first prefix wins);
#: these are the modules that schedule callbacks on the engine.
CALLBACK_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.netsim.medium", "netsim.medium"),
    ("repro.netsim.mobility", "netsim.mobility"),
    ("repro.netsim", "netsim.engine"),
    ("repro.olsr", "olsr"),
    ("repro.attacks", "attacks"),
)

UNATTRIBUTED = "unattributed"


# --------------------------------------------------------------- counters
def _count(name: str) -> Callable:
    def count(tracer: "Tracer", args, result) -> None:
        tracer.counters[name] += 1
    return count


def _count_records_read(tracer: "Tracer", args, result) -> None:
    tracer.counters["logs.records_read"] += len(result)


def _count_query(tracer: "Tracer", args, result) -> None:
    tracer.counters["core.queries"] += 1
    if result is None:
        tracer.counters["core.queries_unreached"] += 1


def _count_trust_update(tracer: "Tracer", args, result) -> None:
    # A scalar update_all calls update() per subject: count slots, not both.
    if tracer.current_label() != "trust":
        tracer.counters["trust.updates"] += 1


def _count_trust_update_all(tracer: "Tracer", args, result) -> None:
    _count_trust_update(tracer, args, result)
    if len(args[0].known_subjects()) >= WIDE_TRUST_SUBJECTS:
        tracer.counters["trust.wide_updates"] += 1


def _count_netsim(tracer: "Tracer", args, result) -> None:
    network = args[0].network
    counters = tracer.counters
    for key, value in network.engine_counters().items():
        counters["netsim.engine." + key] += value
    stats = network.medium.stats
    for key in ("frames_sent", "frames_delivered", "frames_lost", "frames_out_of_range"):
        counters["netsim.medium." + key] += getattr(stats, key)


# ------------------------------------------------------------------ hooks
@dataclass(frozen=True)
class Hook:
    """One hook point: ``target`` is ``"module:attribute.path"``.

    ``label`` names the span (``None`` for the scheduler hooks, which
    attribute callbacks instead); ``count`` updates counters after the
    call; ``serves`` lists the layers left unmeasured if the target is gone.
    """

    target: str
    label: Optional[str]
    count: Optional[Callable] = None
    serves: Tuple[str, ...] = ()

    def layers(self) -> Tuple[str, ...]:
        if self.serves:
            return self.serves
        return (layer_of_label(self.label),)


_SCHEDULER_SERVES = ("netsim.engine", "netsim.medium", "netsim.mobility", "olsr")
_DRIVE_SERVES = ("experiments", "netsim.engine", "netsim.medium")

HOOKS: Tuple[Hook, ...] = (
    Hook("repro.netsim.engine:Simulator.run", "netsim.engine"),
    Hook("repro.netsim.engine:Simulator.schedule", None, serves=_SCHEDULER_SERVES),
    Hook("repro.netsim.engine:Simulator.schedule_at", None, serves=_SCHEDULER_SERVES),
    Hook("repro.netsim.engine:Simulator.post", None, serves=_SCHEDULER_SERVES),
    Hook("repro.netsim.engine:Simulator.schedule_periodic", None, serves=_SCHEDULER_SERVES),
    Hook("repro.netsim.medium:WirelessMedium.transmit", "netsim.medium"),
    Hook("repro.olsr.node:OlsrNode.handle_control", "olsr", _count("olsr.messages_rx")),
    Hook("repro.olsr.node:select_mprs", "olsr.mpr"),
    Hook("repro.olsr.node:compute_routing_table", "olsr.routing"),
    Hook("repro.logs.store:LogStore.log", "logs.write"),
    Hook("repro.logs.analyzer:LogAnalyzer.analyze", "logs.read"),
    Hook("repro.logs.store:LogStore.since_mark", "logs.read", _count_records_read),
    Hook("repro.logs.store:LogStore.by_category", "logs.read", _count_records_read),
    Hook("repro.core.detector_node:DetectorNode.detection_round", "core"),
    Hook("repro.core.investigation:CooperativeInvestigator.run_round", "core",
         _count("core.investigation_rounds")),
    Hook("repro.core.investigation:OracleTransport.verify_link", "core", _count_query),
    Hook("repro.core.investigation:NetworkPathTransport.verify_link", "core", _count_query),
    Hook("repro.core.investigation:CallableTransport.verify_link", "core", _count_query),
    Hook("repro.trust.manager:TrustManager.update", "trust", _count_trust_update),
    Hook("repro.trust.manager:TrustManager.update_all", "trust", _count_trust_update_all),
    Hook("repro.experiments.engine:run_experiment", "experiments"),
    Hook("repro.experiments.engine:execute_cell", "experiments"),
    Hook("repro.experiments.rounds:RoundBasedExperiment.run", "experiments"),
    Hook("repro.experiments.backends:drive_netsim_scenario", "experiments",
         _count_netsim, serves=_DRIVE_SERVES),
    Hook("repro.validation.fuzz:drive_netsim_scenario", "experiments",
         _count_netsim, serves=_DRIVE_SERVES),
    Hook("repro.experiments.results:ResultsStore.record", "experiments.store"),
    Hook("repro.experiments.engine:ExperimentRunResult.format_report", "experiments.report"),
    Hook("repro.validation.fuzz:validate_corpus", "validation"),
    Hook("repro.validation.invariants:ScenarioAuditor.check_all", "validation",
         _count("validation.checks")),
    Hook("repro.validation.fuzz:run_differential", "validation", _count("validation.checks")),
    Hook("repro.experiments.backends:build_netsim_scenario", "setup"),
    Hook("repro.validation.fuzz:build_netsim_scenario", "setup"),
    Hook("repro.experiments.engine:expand_experiment", "setup"),
    Hook("repro.experiments.results:ResultsStore.__init__", "setup"),
    Hook("repro.scenarios.fuzzer:ScenarioFuzzer.sample", "setup"),
)


def layer_of_label(label: str) -> str:
    """Layer a span label belongs to (``logs.write`` -> ``logs``)."""
    for suffix in (".write", ".read", ".store", ".report"):
        if label.endswith(suffix):
            return label[: -len(suffix)]
    return label


def _resolve(target: str):
    """``(owner, attribute, original)`` of a hook target, or ``None``."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attribute, None)
    if not callable(original):
        return None
    return owner, attribute, original


# ------------------------------------------------------------------ tracer
class Tracer:
    """Span tracer over the hook table; install, start, stop, uninstall."""

    def __init__(self, hooks: Tuple[Hook, ...] = HOOKS) -> None:
        self.hooks = hooks
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self.gc_pause = 0.0
        self.gc_collections = 0
        self.gc_gen2_collections = 0
        self.unmeasured: List[str] = []
        self.wall = 0.0
        self._stack: List[list] = []
        self._gc_started = 0.0
        self._patches: List[Tuple[object, str, bool, object]] = []
        self._trampolines: Dict[object, Callable] = {}

    # ------------------------------------------------------------ spans
    def _enter(self, label: str) -> None:
        self._stack.append([label, _clock(), 0.0])

    def _leave(self) -> None:
        frame = self._stack.pop()
        elapsed = _clock() - frame[1]
        self.self_time[frame[0]] += elapsed - frame[2]
        self.calls[frame[0]] += 1
        self._stack[-1][2] += elapsed

    def current_label(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
            return
        pause = _clock() - self._gc_started
        self.gc_pause += pause
        self.gc_collections += 1
        if info.get("generation") == 2:
            self.gc_gen2_collections += 1
        if self._stack:
            self._stack[-1][2] += pause

    def start(self) -> None:
        """Open the root span; time from here on is accounted."""
        gc.callbacks.append(self._on_gc)
        self._stack = [[UNATTRIBUTED, _clock(), 0.0]]

    def stop(self) -> None:
        """Close the root span and stop accounting."""
        frame = self._stack.pop()
        elapsed = _clock() - frame[1]
        gc.callbacks.remove(self._on_gc)
        if self._stack:
            raise RuntimeError(f"unbalanced spans: {[f[0] for f in self._stack]}")
        self.self_time[frame[0]] += elapsed - frame[2]
        self.wall += elapsed

    # ---------------------------------------------------------- wrapping
    def _span_wrapper(self, hook: Hook, function: Callable) -> Callable:
        enter, leave, label, count = self._enter, self._leave, hook.label, hook.count

        if count is None:
            def wrapper(*args, **kwargs):
                enter(label)
                try:
                    return function(*args, **kwargs)
                finally:
                    leave()
        else:
            def wrapper(*args, **kwargs):
                enter(label)
                try:
                    result = function(*args, **kwargs)
                finally:
                    leave()
                count(self, args, result)
                return result
        return functools.wraps(function)(wrapper)

    def _trampoline_for(self, callback: Callable) -> Callable:
        """The span-opening trampoline for a scheduled callback's owner."""
        owner = getattr(callback, "__self__", None)
        key = type(owner) if owner is not None else getattr(callback, "__module__", None)
        trampoline = self._trampolines.get(key)
        if trampoline is None:
            module = key.__module__ if isinstance(key, type) else (key or "")
            label = next((layer for prefix, layer in CALLBACK_LAYERS
                          if module == prefix or module.startswith(prefix + ".")),
                         UNATTRIBUTED)
            enter, leave = self._enter, self._leave

            def trampoline(callback, *args, **kwargs):
                enter(label)
                try:
                    callback(*args, **kwargs)
                finally:
                    leave()
            self._trampolines[key] = trampoline
        return trampoline

    def _scheduler_wrapper(self, function: Callable) -> Callable:
        trampoline_for = self._trampoline_for

        def wrapper(simulator, delay, callback, *args, **kwargs):
            return function(simulator, delay, trampoline_for(callback), callback,
                            *args, **kwargs)
        return functools.wraps(function)(wrapper)

    def install(self) -> None:
        """Patch every resolvable hook point; record the missing ones."""
        unmeasured = set()
        for hook in self.hooks:
            resolved = _resolve(hook.target)
            if resolved is None:
                unmeasured.update(hook.layers())
                continue
            owner, attribute, original = resolved
            own = attribute in vars(owner)
            raw = vars(owner)[attribute] if own else None
            if hook.label is None:
                wrapper = self._scheduler_wrapper(original)
            else:
                wrapper = self._span_wrapper(hook, original)
            setattr(owner, attribute, wrapper)
            self._patches.append((owner, attribute, own, raw))
        self.unmeasured = sorted(unmeasured)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, own, raw = self._patches.pop()
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------ report
    def accounted(self) -> float:
        """Self time of every label plus GC: equals ``wall`` when balanced."""
        return sum(self.self_time.values()) + self.gc_pause


def _share(seconds: float, wall: float) -> float:
    return 100.0 * seconds / wall if wall > 0 else 0.0


def layer_metrics(tracer: Tracer, import_s: float,
                  untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a finished traced run, ``name -> (value, unit)``.

    Metrics of unmeasured layers are left out; ``tracer.unmeasured`` names
    those layers.
    """
    wall = tracer.wall
    own = tracer.self_time
    calls = tracer.calls
    counters = tracer.counters
    experiments_s = own["experiments"] + own["experiments.store"] + own["experiments.report"]
    written = calls["logs.write"]
    overhead = wall - untraced_wall
    table = [
        ("netsim.engine", "netsim.engine.self_s", own["netsim.engine"], "s"),
        ("netsim.engine", "netsim.engine.share", _share(own["netsim.engine"], wall), "%"),
        ("netsim.engine", "netsim.engine.pops", counters["netsim.engine.pops"], "count"),
        ("netsim.engine", "netsim.engine.pushes", counters["netsim.engine.pushes"], "count"),
        ("netsim.engine", "netsim.engine.cancelled_skipped",
         counters["netsim.engine.cancelled_skipped"], "count"),
        ("netsim.medium", "netsim.medium.self_s", own["netsim.medium"], "s"),
        ("netsim.medium", "netsim.medium.share", _share(own["netsim.medium"], wall), "%"),
        ("netsim.medium", "netsim.medium.frames_sent",
         counters["netsim.medium.frames_sent"], "count"),
        ("netsim.medium", "netsim.medium.frames_delivered",
         counters["netsim.medium.frames_delivered"], "count"),
        ("netsim.medium", "netsim.medium.frames_lost",
         counters["netsim.medium.frames_lost"], "count"),
        ("netsim.medium", "netsim.medium.frames_out_of_range",
         counters["netsim.medium.frames_out_of_range"], "count"),
        ("netsim.mobility", "netsim.mobility.self_s", own["netsim.mobility"], "s"),
        ("netsim.mobility", "netsim.mobility.share", _share(own["netsim.mobility"], wall), "%"),
        ("netsim.mobility", "netsim.mobility.ticks", calls["netsim.mobility"], "count"),
        ("olsr", "olsr.self_s", own["olsr"], "s"),
        ("olsr", "olsr.share", _share(own["olsr"], wall), "%"),
        ("olsr", "olsr.messages_rx", counters["olsr.messages_rx"], "count"),
        ("olsr.mpr", "olsr.mpr.self_s", own["olsr.mpr"], "s"),
        ("olsr.mpr", "olsr.mpr.share", _share(own["olsr.mpr"], wall), "%"),
        ("olsr.mpr", "olsr.mpr.calls", calls["olsr.mpr"], "count"),
        ("olsr.routing", "olsr.routing.self_s", own["olsr.routing"], "s"),
        ("olsr.routing", "olsr.routing.share", _share(own["olsr.routing"], wall), "%"),
        ("olsr.routing", "olsr.routing.calls", calls["olsr.routing"], "count"),
        ("logs", "logs.write_s", own["logs.write"], "s"),
        ("logs", "logs.write_share", _share(own["logs.write"], wall), "%"),
        ("logs", "logs.records_written", written, "count"),
        ("logs", "logs.read_s", own["logs.read"], "s"),
        ("logs", "logs.read_share", _share(own["logs.read"], wall), "%"),
        ("logs", "logs.records_read", counters["logs.records_read"], "count"),
        ("logs", "logs.read_ratio",
         counters["logs.records_read"] / written if written else 0.0, "ratio"),
        ("gc", "gc.pause_s", tracer.gc_pause, "s"),
        ("gc", "gc.share", _share(tracer.gc_pause, wall), "%"),
        ("gc", "gc.collections", tracer.gc_collections, "count"),
        ("gc", "gc.gen2_collections", tracer.gc_gen2_collections, "count"),
        ("core", "core.self_s", own["core"], "s"),
        ("core", "core.share", _share(own["core"], wall), "%"),
        ("core", "core.investigation_rounds", counters["core.investigation_rounds"], "count"),
        ("core", "core.queries", counters["core.queries"], "count"),
        ("core", "core.queries_unreached", counters["core.queries_unreached"], "count"),
        ("trust", "trust.self_s", own["trust"], "s"),
        ("trust", "trust.share", _share(own["trust"], wall), "%"),
        ("trust", "trust.updates", counters["trust.updates"], "count"),
        ("trust", "trust.wide_updates", counters["trust.wide_updates"], "count"),
        ("experiments", "experiments.self_s", experiments_s, "s"),
        ("experiments", "experiments.share", _share(experiments_s, wall), "%"),
        ("experiments", "experiments.store_s", own["experiments.store"], "s"),
        ("experiments", "experiments.store_commits", calls["experiments.store"], "count"),
        ("experiments", "experiments.report_s", own["experiments.report"], "s"),
        ("validation", "validation.self_s", own["validation"], "s"),
        ("validation", "validation.share", _share(own["validation"], wall), "%"),
        ("validation", "validation.checks", counters["validation.checks"], "count"),
        ("attacks", "attacks.self_s", own["attacks"], "s"),
        ("attacks", "attacks.share", _share(own["attacks"], wall), "%"),
        ("setup", "setup.import_s", import_s, "s"),
        ("setup", "setup.build_s", own["setup"], "s"),
        ("setup", "setup.share", _share(own["setup"], wall), "%"),
        ("trace", "trace.wall_s", wall, "s"),
        ("trace", "trace.unattributed_s", own[UNATTRIBUTED], "s"),
        ("trace", "trace.unattributed_share", _share(own[UNATTRIBUTED], wall), "%"),
        ("trace", "trace.overhead_s", overhead, "s"),
        ("trace", "trace.overhead_pct", _share(overhead, untraced_wall), "%"),
    ]
    skipped = set(tracer.unmeasured)
    return {name: (value, unit) for layer, name, value, unit in table
            if layer not in skipped}
