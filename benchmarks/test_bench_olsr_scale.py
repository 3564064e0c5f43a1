"""Table C (substrate) — OLSR / simulator scale and the medium fast path.

Documents the cost of the substrate the detection runs on: simulated events,
messages processed and wall-clock throughput for growing network sizes.  This
is not a paper figure; it records that the substitution (custom discrete-event
simulator instead of a testbed) is fast enough to regenerate every experiment
on a laptop.

``test_bench_medium_fast_path`` additionally compares the medium's spatial
neighbour index against the all-pairs scan kept in ``tests/reference/`` on
identical workloads (broadcast floods plus connectivity queries at
constant node density) and asserts the fast path makes fewer calls from 64
nodes up.

``test_bench_batch_delivery_speedup`` compares the medium's batched broadcast
resolution against the per-receiver reference medium in ``tests/reference/``,
and ``test_bench_engine_throughput_vs_heap`` the engine against the
reference heap of event objects.  These three gate on Python calls counted
with ``sys.setprofile`` (comprehension frames left out, as Python 3.12
inlines them), which no host can move; their wall-clock columns are
information.
``test_bench_campaign_cell_scale`` records a full campaign cell at 256 and
1,024 nodes (the latter behind ``REPRO_SCALE_BENCH=1``: it runs for several
minutes by design).
"""

from __future__ import annotations

import math
import os
import random
import sys
import time

import pytest

from repro.experiments import format_table
from repro.experiments.engine import execute_cell, get_experiment
from repro.experiments.scenario import build_manet_scenario
from repro.netsim.engine import Simulator
from repro.netsim.medium import (
    DistanceLossModel,
    UnitDiskPropagation,
    WirelessMedium,
)
from repro.netsim.network import PositionTable
from repro.netsim.packet import Frame
from tests.reference import HeapSimulator, PerReceiverMedium, scan_connectivity

_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def _count_calls(function, *args):
    """``function(*args)``'s result and the Python calls made meanwhile."""
    calls = [0]

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_name not in _INLINED:
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = function(*args)
    finally:
        sys.setprofile(previous)
    return result, calls[0]


def _run_network(node_count: int, duration: float = 60.0):
    scenario = build_manet_scenario(node_count=node_count, liar_count=0, seed=5,
                                    attack_start=duration * 10)
    scenario.warm_up(duration)
    return scenario


@pytest.mark.parametrize("node_count", [16, 32, 64])
def test_bench_olsr_simulation_scale(benchmark, emit, node_count):
    scenario = benchmark.pedantic(_run_network, args=(node_count,), rounds=1, iterations=1)

    simulator = scenario.network.simulator
    stats = scenario.network.medium.stats
    total_rx = sum(node.router.stats.messages_received for node in scenario.nodes.values())
    total_tx = sum(sum(node.router.stats.per_type_sent.values())
                   for node in scenario.nodes.values())
    rows = [{
        "nodes": node_count,
        "simulated_seconds": 60.0,
        "events_processed": simulator.processed_events,
        "frames_sent": stats.frames_sent,
        "frames_delivered": stats.frames_delivered,
        "olsr_messages_sent": total_tx,
        "olsr_messages_received": total_rx,
        "mean_routes_per_node": round(
            sum(len(n.router.routing_table) for n in scenario.nodes.values())
            / len(scenario.nodes), 1),
    }]
    emit(f"TABLE C (Simulator scale, {node_count} nodes)",
         format_table(rows, title="Table C — 60 simulated seconds of OLSR"))

    assert simulator.processed_events > 0
    assert stats.frames_delivered > 0
    benchmark.extra_info.update(rows[0])


class _Sink:
    """Frame sink: counts deliveries without protocol processing."""

    def __init__(self):
        self.received = 0

    def receive(self, frame, now):
        self.received += 1


def _sink_medium(medium_cls, node_count: int, spacing: float, **kwargs):
    """A bare medium over ``node_count`` grid-placed nodes, one
    :class:`_Sink` registered per node."""
    simulator = Simulator()
    medium = medium_cls(simulator, propagation=UnitDiskPropagation(radio_range=250.0),
                        **kwargs)
    node_ids = [f"n{i:03d}" for i in range(node_count)]
    columns = math.ceil(math.sqrt(node_count))
    positions = PositionTable({
        node_id: (index % columns * spacing, index // columns * spacing)
        for index, node_id in enumerate(node_ids)})
    medium.bind_positions(positions)
    sinks = {}
    for node_id in node_ids:
        sink = _Sink()
        medium.register(node_id, sink)
        sinks[node_id] = sink
    return simulator, medium, positions, node_ids, sinks


def _medium_workload(node_count: int, medium_cls, rounds: int = 20) -> float:
    """Broadcast floods + connectivity queries; returns elapsed wall-clock.

    The :class:`PerReceiverMedium` side answers its connectivity queries
    with the reference all-pairs scan.
    """
    simulator, medium, positions, node_ids, sinks = _sink_medium(
        medium_cls, node_count, spacing=180.0)
    if medium_cls is WirelessMedium:
        connectivity = medium.connectivity_matrix
    else:
        def connectivity():
            return scan_connectivity(medium.node_ids, positions, medium.propagation)
    started = time.perf_counter()
    for _ in range(rounds):
        for node_id in node_ids:
            medium.transmit(Frame(source=node_id, payload=None))
        simulator.run()
        connectivity()
    elapsed = time.perf_counter() - started
    assert sum(sink.received for sink in sinks.values()) > 0
    return elapsed


@pytest.mark.parametrize("node_count", [64, 128, 256])
def test_bench_medium_fast_path(benchmark, emit, node_count):
    """The spatial index must make fewer Python calls than the reference
    all-pairs scan on the same floods and queries, at >= 64 nodes.

    A call count is the same on any host; the wall-clock columns (best of 3
    each) are information.
    """
    fast = benchmark.pedantic(
        _medium_workload, args=(node_count, WirelessMedium), rounds=1, iterations=1)
    fast = min([fast] + [_medium_workload(node_count, WirelessMedium) for _ in range(2)])
    brute = min(_medium_workload(node_count, PerReceiverMedium) for _ in range(3))
    _, fast_calls = _count_calls(_medium_workload, node_count, WirelessMedium)
    _, brute_calls = _count_calls(_medium_workload, node_count, PerReceiverMedium)
    rows = [{
        "nodes": node_count,
        "fast_calls": fast_calls,
        "brute_calls": brute_calls,
        "call_ratio": round(brute_calls / fast_calls, 2),
        "fast_path_s": round(fast, 4),
        "brute_force_s": round(brute, 4),
        "speedup": round(brute / fast, 2) if fast else None,
    }]
    emit(f"TABLE C' (Medium fast path vs brute force, {node_count} nodes)",
         format_table(rows, title="Table C' — spatial index speedup"))
    benchmark.extra_info.update(rows[0])
    assert fast_calls < brute_calls, (
        f"spatial index made {fast_calls} Python calls, the all-pairs scan "
        f"{brute_calls}, at {node_count} nodes"
    )


def _delivery_workload(node_count: int, medium_cls, rounds: int = 10) -> float:
    """Broadcast floods through a lossy dense channel; returns wall-clock.

    Node density (grid spacing 60 m at 250 m range, ~50 receivers per
    broadcast) matches what a 1,024-node campaign cell's flooding core sees;
    no connectivity queries, so the measurement isolates delivery resolution.
    """
    simulator, medium, _, node_ids, sinks = _sink_medium(
        medium_cls, node_count, spacing=60.0,
        loss_model=DistanceLossModel(radio_range=250.0, rng=random.Random(9)))
    started = time.perf_counter()
    for _ in range(rounds):
        for node_id in node_ids:
            medium.transmit(Frame(source=node_id, payload=None))
        simulator.run()
    elapsed = time.perf_counter() - started
    assert sum(sink.received for sink in sinks.values()) > 0
    return elapsed


@pytest.mark.parametrize("node_count", [256, 512])
def test_bench_batch_delivery_speedup(benchmark, emit, node_count):
    """Batched delivery must make at most a third of the per-receiver
    medium's Python calls on the same floods.

    One event per receiver costs a push, a dispatch and a ``receive`` call
    each; a batch costs one push per frame and one ``receive`` call per
    receiver.  The wall-clock columns (best of 3 each) are information.
    """
    batch = benchmark.pedantic(
        _delivery_workload, args=(node_count, WirelessMedium), rounds=1, iterations=1)
    batch = min([batch] + [_delivery_workload(node_count, WirelessMedium)
                           for _ in range(2)])
    scalar = min(_delivery_workload(node_count, PerReceiverMedium) for _ in range(3))
    _, batch_calls = _count_calls(_delivery_workload, node_count, WirelessMedium)
    _, scalar_calls = _count_calls(_delivery_workload, node_count, PerReceiverMedium)
    rows = [{
        "nodes": node_count,
        "batch_calls": batch_calls,
        "scalar_calls": scalar_calls,
        "call_ratio": round(scalar_calls / batch_calls, 2),
        "batch_s": round(batch, 4),
        "scalar_s": round(scalar, 4),
        "speedup": round(scalar / batch, 2) if batch else None,
    }]
    emit(f"TABLE C'' (Batched vs scalar delivery, {node_count} nodes)",
         format_table(rows, title="Table C'' — batched delivery speedup"))
    benchmark.extra_info.update(rows[0])
    assert batch_calls * 3 <= scalar_calls, (
        f"batched delivery made {batch_calls} Python calls, more than a third "
        f"of the per-receiver medium's {scalar_calls}, at {node_count} nodes")


def _engine_workload(simulator, node_count: int = 256,
                     horizon: float = 120.0) -> int:
    """Campaign-shaped scheduler traffic, engine cost only.

    Replays the event mix a ``node_count``-node campaign cell pushes through
    the scheduler — per-node jittered HELLO/TC periodic chains plus plain
    housekeeping, one global mobility tick, a fan-out of delivery one-shots
    per HELLO emission, and a slice of cancelled AODV-style timers — with
    no-op callbacks, so the measurement isolates the engine itself (in the
    full cell the protocol work on top is identical for both engines).
    Returns the number of events processed.
    """
    rng = random.Random(17)
    sink = []  # pending "retry timers", half of which get cancelled

    def deliver():
        return None

    def emit_hello(fanout: int):
        for _ in range(fanout):
            simulator.post(0.001, deliver)
        handle = simulator.schedule(rng.uniform(1.0, 3.0), deliver)
        sink.append(handle)
        if len(sink) >= 64:
            for stale in sink[::2]:
                stale.cancel()
            del sink[:]

    for node in range(node_count):
        node_rng = random.Random(node)
        simulator.schedule_periodic(
            2.0, emit_hello, 18,
            start_delay=rng.uniform(0.0, 1.0),
            jitter=0.5, rng=node_rng)
        simulator.schedule_periodic(
            5.0, emit_hello, 6,
            start_delay=rng.uniform(0.0, 1.0) + 2.0,
            jitter=0.5, rng=node_rng)
        simulator.schedule_periodic(2.0, deliver, start_delay=2.0)
    simulator.schedule_periodic(1.0, deliver, start_delay=1.0)  # mobility tick
    simulator.run(until=horizon)
    return simulator.processed_events


#: Python calls per executed event allowed on ``_engine_workload`` at 256
#: nodes, the workload's own callbacks included.
MAX_ENGINE_CALLS_PER_EVENT = 2.5


@pytest.mark.parametrize("node_count", [256])
def test_bench_engine_throughput_vs_heap(benchmark, emit, node_count):
    """The engine must make at most 2.5 Python calls per event on the
    256-node campaign cell's scheduler workload.

    Both engines process the exact same event stream (the parity suite
    separately proves order identity).  The events-per-second columns (best
    of 3 each) are information.
    """
    def measure(engine_cls):
        simulator = engine_cls()
        started = time.perf_counter()
        processed = _engine_workload(simulator, node_count)
        return processed, time.perf_counter() - started

    events, engine_s = benchmark.pedantic(
        measure, args=(Simulator,), rounds=1, iterations=1)
    for _ in range(2):
        _, again = measure(Simulator)
        engine_s = min(engine_s, again)
    heap_events, heap_s = measure(HeapSimulator)
    for _ in range(2):
        _, again = measure(HeapSimulator)
        heap_s = min(heap_s, again)
    assert events == heap_events  # identical logical work
    counted, calls = _count_calls(_engine_workload, Simulator(), node_count)
    _, heap_calls = _count_calls(_engine_workload, HeapSimulator(), node_count)
    assert counted == events

    rows = [{
        "nodes": node_count,
        "events": events,
        "calls_per_event": round(calls / events, 2),
        "heap_calls_per_event": round(heap_calls / events, 2),
        "events_per_s": round(events / engine_s),
        "heap_events_per_s": round(heap_events / heap_s),
        "speedup": round(heap_s / engine_s, 2),
    }]
    emit(f"TABLE C'''' (Engine throughput, {node_count}-node cell workload)",
         format_table(rows, title="Table C'''' — tuple heap vs object heap engine"))
    benchmark.extra_info.update(rows[0])
    assert calls / events <= MAX_ENGINE_CALLS_PER_EVENT, (
        f"{calls / events:.2f} Python calls per event ({calls} calls, "
        f"{events} events)")


def _campaign_cell(node_count: int, area_size: float):
    """One reduced campaign cell (2 detection cycles) at the given scale;
    returns its detector row."""
    (spec,) = get_experiment("campaign").expand(
        axes={"total_nodes": (node_count,), "liar_fraction": (0.1,),
              "loss_probability": (0.1,), "max_speed": (2.0,)},
        params={"area_size": area_size, "warmup": 12.0, "cycles": 2})
    return execute_cell(spec)[0]


@pytest.mark.parametrize("node_count,area_size", [(256, 2800.0),
                                                  (1024, 5600.0)])
def test_bench_campaign_cell_scale(benchmark, emit, node_count, area_size):
    """A full campaign cell (batch mode) completes at scale.

    The 1,024-node cell is the tentpole's target workload; it needs several
    minutes of wall-clock even on the batched core, so it only runs when
    ``REPRO_SCALE_BENCH=1`` is exported (see README "Scaling").

    Export ``REPRO_SCALE_BASELINE_S=<seconds>`` to additionally assert the
    run beats a recorded wall-clock (e.g. the heap-engine number for the
    same cell on the same machine); absolute seconds are machine-specific,
    so there is no hard-coded floor.
    """
    if node_count > 256 and os.environ.get("REPRO_SCALE_BENCH") != "1":
        pytest.skip("set REPRO_SCALE_BENCH=1 to run the 1,024-node cell")
    started = time.perf_counter()
    row = benchmark.pedantic(_campaign_cell, args=(node_count, area_size),
                             rounds=1, iterations=1)
    elapsed = time.perf_counter() - started
    rows = [{
        "nodes": node_count,
        "area_m": area_size,
        "wall_clock_s": round(elapsed, 1),
        "events": row["events"],
        "events_per_s": round(row["events"] / elapsed) if elapsed else None,
    }]
    emit(f"TABLE C''' (Campaign cell at scale, {node_count} nodes)",
         format_table(rows, title="Table C''' — campaign cell wall-clock"))
    benchmark.extra_info.update(rows[0])
    assert row["events"] > 0
    baseline = os.environ.get("REPRO_SCALE_BASELINE_S")
    if baseline:
        assert elapsed < float(baseline), (
            f"{node_count}-node cell took {elapsed:.1f}s, expected to beat "
            f"the recorded baseline of {baseline}s")
