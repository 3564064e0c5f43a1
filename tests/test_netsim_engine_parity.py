"""Engine parity: the tuple heap runs events in the reference heap's order.

:class:`repro.netsim.engine.Simulator` must execute events in exactly the
order the reference :class:`tests.reference.HeapSimulator` (event objects
ordered by a Python ``__lt__``) does — same ``(time, sequence)`` FIFO, same
clock positions, same periodic-chain behaviour — because the whole
campaign/figure pipeline's byte-identity rests on it.

Two layers of evidence:

* a property test replaying 50 seeded random schedules (one-shots, nested
  reschedules, cancellations, jittered periodic chains) through both
  engines and comparing the full traces, which also checks the engine's
  accounting after ``run``, ``step`` and ``drain``;
* a campaign cell executed under each engine, comparing the stored row
  JSON byte for byte.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.experiments.engine import execute_cell, get_experiment
from repro.netsim.engine import Simulator
from tests.reference import HeapSimulator


def _build_ops(seed: int):
    """One frozen random schedule: engine-independent operation list."""
    rng = random.Random(seed * 7919 + 13)
    ops = []
    for i in range(50):
        kind = rng.random()
        t = rng.uniform(0.0, 40.0)
        if kind < 0.45:
            ops.append(("at", t, i))
        elif kind < 0.65:
            ops.append(("nested", t, rng.uniform(0.0, 10.0), i))
        elif kind < 0.80:
            ops.append(("periodic", rng.uniform(0.3, 4.0), t * 0.25,
                        rng.random() < 0.5, i))
        else:
            ops.append(("cancel", t, i))
    return ops


def _trace(sim, ops):
    out = []
    jitter_rng = random.Random(4242)

    def record(label):
        out.append((sim.now, label))

    def nested(label, delay):
        out.append((sim.now, label))
        sim.schedule(delay, record, ("nested-child", label))

    cancel_handles = []
    for op in ops:
        if op[0] == "at":
            sim.schedule_at(op[1], record, ("at", op[2]))
        elif op[0] == "nested":
            sim.schedule_at(op[1], nested, ("nested", op[3]), op[2])
        elif op[0] == "periodic":
            _, interval, start_delay, jittered, i = op
            if jittered:
                sim.schedule_periodic(interval, record, ("periodic", i),
                                      start_delay=start_delay,
                                      jitter=0.3 * interval, rng=jitter_rng)
            else:
                sim.schedule_periodic(interval, record, ("periodic", i),
                                      start_delay=start_delay)
        else:
            cancel_handles.append(sim.schedule_at(op[1], record,
                                                  ("cancelled", op[2])))
    # Cancel in a deterministic but scattered pattern, including some chains.
    for index, handle in enumerate(cancel_handles):
        if index % 3 != 2:
            handle.cancel()
    sim.run(until=60.0)
    out.append(("final-now", sim.now))
    out.append(("processed", sim.processed_events))
    return out


def _assert_accounted(sim):
    """Every event pushed was popped, skipped as cancelled, or is queued."""
    counters = sim.counters()
    assert counters["pushes"] == (counters["pops"] + counters["cancelled_skipped"]
                                  + sim.queued_entries)


@pytest.mark.parametrize("seed", range(50))
def test_random_schedules_trace_identical_to_heap_engine(seed):
    ops = _build_ops(seed)
    sim = Simulator()
    assert _trace(sim, ops) == _trace(HeapSimulator(), ops)
    _assert_accounted(sim)
    for _ in range(3):
        sim.step()
        _assert_accounted(sim)
    drained = list(sim.drain())
    assert sim.queued_entries == 0
    _assert_accounted(sim)
    assert sim.counters()["pops"] == sim.processed_events + len(drained)


def _campaign_cell(warmup, **axes):
    (spec,) = get_experiment("campaign").expand(
        axes={name: (value,) for name, value in axes.items()},
        params={"warmup": warmup, "cycles": 2})
    return spec


def _cell_rows_under(engine_cls, spec, monkeypatch):
    """Row JSON of ``spec`` with every scenario built on ``engine_cls``."""
    import repro.experiments.scenario as scenario_module
    import repro.netsim.network as network_module

    built = []

    class Engine(engine_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(network_module, "Simulator", Engine)
    monkeypatch.setattr(scenario_module, "Simulator", Engine)
    rows = json.dumps(execute_cell(spec), sort_keys=True)
    assert built, "the cell did not run on the patched engine"
    return rows


def test_campaign_row_json_identical_between_engines(monkeypatch):
    """A full campaign cell run under the reference heap engine and the
    program's engine persists byte-identical row JSON."""
    spec = _campaign_cell(total_nodes=16, liar_fraction=0.25,
                          loss_model="distance", loss_probability=0.8,
                          max_speed=6.0, warmup=15.0)

    assert (_cell_rows_under(Simulator, spec, monkeypatch)
            == _cell_rows_under(HeapSimulator, spec, monkeypatch))


def test_mobile_lossy_cell_rows_identical_between_engines(monkeypatch):
    """Same check on a mobile + lossy cell, where mobility ticks and
    Bernoulli loss change what is flooded from tick to tick."""
    spec = _campaign_cell(total_nodes=20, liar_fraction=0.2,
                          loss_model="bernoulli", loss_probability=0.2,
                          max_speed=8.0, warmup=12.0)

    assert (_cell_rows_under(Simulator, spec, monkeypatch)
            == _cell_rows_under(HeapSimulator, spec, monkeypatch))
