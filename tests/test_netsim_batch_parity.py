"""Medium parity: batched delivery is a pure performance optimisation.

:meth:`repro.netsim.medium.WirelessMedium.transmit` resolves each frame's
receivers once and serves them all with one scheduled event.  It must be
observably indistinguishable from :class:`tests.reference.PerReceiverMedium`,
which scans, decides and schedules every receiver alone: identical delivery
traces, statistics, experiment results and stored row JSON, and
``processed_events + batched_deliveries_saved`` equal to the reference's
event count.

The full-scenario sweep covers node count × loss model × mobility; the
bare-medium case drifts 24 nodes between bursts of broadcasts, and removes
the trace recorder around and during a burst.  The vector Eq. 5 trust
update is pinned against per-subject updates.
"""

from __future__ import annotations

import json
import random

import pytest

import repro.experiments.scenario as scenario_module
from repro.experiments.backends import (
    build_netsim_scenario,
    drive_netsim_scenario,
    scenario_config_from_params,
)
from repro.experiments.engine import execute_cell, get_experiment
from repro.netsim.engine import Simulator
from repro.netsim.medium import (
    BernoulliLossModel,
    UnitDiskPropagation,
    WirelessMedium,
)
from repro.netsim.network import PositionTable
from repro.netsim.packet import Frame
from repro.netsim.trace import TraceRecorder
from tests.reference import PerReceiverMedium

#: (node_count, loss_model, loss_probability, max_speed) sweep: static
#: perfect channel, lossy static, mobile lossy, mobile distance-loss.
SWEEP = [
    (8, "bernoulli", 0.0, 0.0),
    (16, "bernoulli", 0.3, 0.0),
    (16, "bernoulli", 0.2, 6.0),
    (24, "distance", 0.8, 8.0),
]


def _run(node_count, loss_model, loss_probability, max_speed, medium_cls):
    params = {
        "loss_model": loss_model,
        "loss_probability": loss_probability,
        "max_speed": max_speed,
        "warmup": 15.0,
        "cycles": 2,
    }
    config = scenario_config_from_params(
        {"total_nodes": node_count, "liar_count": 2, "rounds": 2}, seed=7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "WirelessMedium", medium_cls)
        scenario = build_netsim_scenario(config, params)
    assert type(scenario.network.medium) is medium_cls
    recorder = TraceRecorder()
    scenario.network.medium.trace_recorder = recorder
    result = drive_netsim_scenario(scenario, config, params)
    return result, recorder


def _assert_same_trace(got_trace, want_trace):
    # TraceEvent.__eq__ skips ``data``, so compare the payload explicitly.
    assert len(got_trace.events) == len(want_trace.events)
    for got, want in zip(got_trace.events, want_trace.events):
        assert got == want
        assert got.data == want.data


@pytest.mark.parametrize("node_count,loss_model,loss_probability,max_speed",
                         SWEEP)
def test_batch_and_scalar_runs_are_identical(node_count, loss_model,
                                             loss_probability, max_speed):
    batch_result, batch_trace = _run(
        node_count, loss_model, loss_probability, max_speed, WirelessMedium)
    scalar_result, scalar_trace = _run(
        node_count, loss_model, loss_probability, max_speed, PerReceiverMedium)
    _assert_same_trace(batch_trace, scalar_trace)

    # Experiment outcome: every observable field matches, including
    # ``events_processed`` (processed events plus the deliveries batching
    # saved).  Raw scheduler counters (``engine``) are the one legitimately
    # path-dependent entry: batching exists precisely to push fewer events.
    batch_stats = dict(batch_result.stats)
    scalar_stats = dict(scalar_result.stats)
    assert batch_stats.pop("engine")["pushes"] <= scalar_stats.pop("engine")["pushes"]
    assert batch_stats == scalar_stats
    assert batch_result.initial_trust == scalar_result.initial_trust
    assert len(batch_result.rounds) == len(scalar_result.rounds)
    for got, want in zip(batch_result.rounds, scalar_result.rounds):
        assert got.detect_value == want.detect_value
        assert got.outcome == want.outcome
        assert got.margin == want.margin
        assert got.answers == want.answers
        assert got.trust_snapshot == want.trust_snapshot


def test_campaign_row_json_identical_between_paths(monkeypatch):
    """The JSON text a ResultsStore would persist is byte-identical.

    ``json.dumps`` serialises NaN/±inf as ``NaN``/``Infinity`` tokens, so
    comparing the dumped text covers non-finite metric values too.
    """
    (spec,) = get_experiment("campaign").expand(
        axes={"total_nodes": (16,), "liar_fraction": (0.25,),
              "loss_model": ("distance",), "loss_probability": (0.8,),
              "max_speed": (6.0,)},
        params={"warmup": 15.0, "cycles": 2})
    rows = {}
    for medium_cls in (WirelessMedium, PerReceiverMedium):
        monkeypatch.setattr(scenario_module, "WirelessMedium", medium_cls)
        rows[medium_cls] = json.dumps(execute_cell(spec), sort_keys=True)
    assert rows[WirelessMedium] == rows[PerReceiverMedium]


# ------------------------------------------------------------ bare medium
def _bare_run(medium_cls):
    """24 drifting nodes exchanging 150 broadcasts, then two bursts in which
    every node broadcasts at once.

    The trace recorder is removed before the first burst is sent and while
    the second is in the air.  Returns everything observable, and the
    deliveries batching saved.
    """
    simulator = Simulator()
    loss_rng = random.Random(12)
    medium = medium_cls(
        simulator,
        propagation=UnitDiskPropagation(radio_range=250.0),
        loss_model=BernoulliLossModel(loss_probability=0.3, rng=loss_rng),
    )
    layout = random.Random(3)
    ids = [f"n{i:02d}" for i in range(24)]
    positions = PositionTable(
        {nid: (layout.uniform(0, 600), layout.uniform(0, 600)) for nid in ids})
    medium.bind_positions(positions)
    deliveries = []

    class Sink:
        def __init__(self, node_id):
            self.node_id = node_id

        def receive(self, frame, now):
            deliveries.append((now, self.node_id, frame.payload))

    for nid in ids:
        medium.register(nid, Sink(nid))
    recorder = TraceRecorder()
    medium.trace_recorder = recorder

    def drift():
        for nid in ids:
            x, y = positions[nid]
            positions[nid] = (x + layout.uniform(-40, 40), y + layout.uniform(-40, 40))

    traffic = random.Random(5)
    for k in range(150):
        frame = Frame(source=traffic.choice(ids), payload=k)
        simulator.schedule_at(traffic.uniform(0.0, 3.0), medium.transmit, frame)
    for tick in (1.0, 2.0):
        simulator.schedule_at(tick, drift)
    # The frames of a burst arrive 0.1 ms after it is sent.
    for when, gap_start in ((1.5, 1.5 - 1e-3), (2.5, 2.5 + 5e-5)):
        for source in ids:
            frame = Frame(source=source, payload=(when, source))
            simulator.schedule_at(when, medium.transmit, frame)
        simulator.schedule_at(gap_start, setattr, medium, "trace_recorder", None)
        simulator.schedule_at(when + 1e-3, setattr, medium, "trace_recorder", recorder)
    simulator.run()
    observed = {
        "deliveries": deliveries,
        "trace": [(e.time, e.node, e.description, e.data) for e in recorder.events],
        "stats": medium.stats,
        "events": simulator.processed_events + medium.batched_deliveries_saved,
        "rng": loss_rng.getstate(),
    }
    return observed, medium.batched_deliveries_saved


def test_bare_medium_matches_per_receiver_reference():
    got, saved = _bare_run(WirelessMedium)
    want, _ = _bare_run(PerReceiverMedium)
    assert got["deliveries"] and got["stats"].frames_lost
    assert got == want
    assert saved > 0
    assert got["stats"].frames_unroutable == 0


# ------------------------------------------------------------------ trust
def test_trust_update_all_vector_matches_scalar():
    """``update_all`` on a wide slot, given each subject's summed
    contribution, equals one ``update`` call per subject on its evidence
    list, in sorted order."""
    from repro.trust.evidence import EvidenceKind, TrustEvidence
    from repro.trust.manager import TrustManager, TrustParameters

    kinds = list(EvidenceKind)

    def build():
        manager = TrustManager("A", TrustParameters(beta_recovery=0.98))
        evidences = {}
        local = random.Random(77)
        for i in range(40):
            subject = f"n{i}"
            if local.random() < 0.7:
                manager.set_initial_trust(subject, local.random())
            if local.random() < 0.6:
                evidences[subject] = [
                    TrustEvidence(observer="A", subject=subject,
                                  kind=local.choice(kinds),
                                  value=local.uniform(-1, 1),
                                  firsthand=local.random() < 0.5,
                                  imminent=local.random() < 0.3)
                    for _ in range(local.randint(1, 4))
                ]
        return manager, evidences

    scalar_manager, scalar_evidences = build()
    vector_manager, vector_evidences = build()
    alpha_for = vector_manager.parameters.alpha_for
    contributions = {}
    for subject, evidences in vector_evidences.items():
        total = 0.0
        for evidence in evidences:
            total += evidence.weighted(alpha_for(evidence.value))
        contributions[subject] = total

    subjects = sorted(set(scalar_evidences) | set(scalar_manager.known_subjects()))
    assert len(subjects) >= 16
    scalar_results = {
        subject: scalar_manager.update(subject, scalar_evidences.get(subject, []))
        for subject in subjects
    }
    vector_results = vector_manager.update_all(contributions)

    assert scalar_results == vector_results
    assert list(scalar_results) == list(vector_results)
    assert scalar_manager.as_dict() == vector_manager.as_dict()
