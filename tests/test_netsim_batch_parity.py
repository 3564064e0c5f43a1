"""Batch vs. scalar medium parity: the batched broadcast path is a pure
performance optimisation.

The batched delivery path of :class:`repro.netsim.medium.WirelessMedium`
must be observably indistinguishable from the per-receiver scalar path:
identical delivery traces, identical experiment results, identical stored
row JSON.  These tests sweep node count × loss model × mobility and compare
the two paths event for event, plus the supporting numeric kernels
(vectorised MPR selection, distance-loss probabilities, vectorised trust
updates) against their scalar references.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.experiments.backends import (
    build_netsim_scenario,
    drive_netsim_scenario,
    scenario_config_from_params,
)
from repro.experiments.engine import execute_cell, get_experiment
from repro.netsim.medium import DistanceLossModel
from repro.netsim.trace import TraceRecorder
from repro.numerics import numpy_or_none
from repro.olsr.constants import Willingness
from repro.olsr.mpr import select_mprs

#: (node_count, loss_model, loss_probability, max_speed) sweep: static
#: perfect channel, lossy static, mobile lossy, mobile distance-loss.
SWEEP = [
    (8, "bernoulli", 0.0, 0.0),
    (16, "bernoulli", 0.3, 0.0),
    (16, "bernoulli", 0.2, 6.0),
    (24, "distance", 0.8, 8.0),
]


def _run(node_count, loss_model, loss_probability, max_speed, batch):
    params = {
        "loss_model": loss_model,
        "loss_probability": loss_probability,
        "max_speed": max_speed,
        "warmup": 15.0,
        "cycles": 2,
        "batch_delivery": batch,
    }
    config = scenario_config_from_params(
        {"total_nodes": node_count, "liar_count": 2, "rounds": 2}, seed=7)
    scenario = build_netsim_scenario(config, params)
    recorder = TraceRecorder()
    scenario.network.medium.trace_recorder = recorder
    result = drive_netsim_scenario(scenario, config, params)
    return result, recorder


@pytest.mark.parametrize("node_count,loss_model,loss_probability,max_speed",
                         SWEEP)
def test_batch_and_scalar_runs_are_identical(node_count, loss_model,
                                             loss_probability, max_speed):
    batch_result, batch_trace = _run(
        node_count, loss_model, loss_probability, max_speed, batch=True)
    scalar_result, scalar_trace = _run(
        node_count, loss_model, loss_probability, max_speed, batch=False)

    # Delivery traces: same events in the same order, payload included
    # (TraceEvent.__eq__ skips ``data``, so compare it explicitly).
    assert len(batch_trace.events) == len(scalar_trace.events)
    for got, want in zip(batch_trace.events, scalar_trace.events):
        assert got == want
        assert got.data == want.data

    # Experiment outcome: every observable field matches.  Raw scheduler
    # counters (``engine``) are the one legitimately path-dependent entry:
    # batching exists precisely to push fewer delivery events.
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


def test_campaign_row_json_identical_between_paths():
    """The JSON text a ResultsStore would persist is byte-identical.

    ``json.dumps`` serialises NaN/±inf as ``NaN``/``Infinity`` tokens, so
    comparing the dumped text covers non-finite metric values too.
    """
    rows = {}
    for batch in (True, False):
        (spec,) = get_experiment("campaign").expand(
            axes={"total_nodes": (16,), "liar_fraction": (0.25,),
                  "loss_model": ("distance",), "loss_probability": (0.8,),
                  "max_speed": (6.0,)},
            params={"warmup": 15.0, "cycles": 2, "batch_delivery": batch})
        rows[batch] = json.dumps(execute_cell(spec), sort_keys=True)
    assert rows[True] == rows[False]


def test_mpr_numpy_matches_scalar_on_random_topologies():
    np = numpy_or_none()
    if np is None:
        pytest.skip("numpy unavailable")
    rng = random.Random(42)
    wills = [Willingness.WILL_NEVER, Willingness.WILL_LOW,
             Willingness.WILL_DEFAULT, Willingness.WILL_HIGH,
             Willingness.WILL_ALWAYS]
    for _ in range(150):
        n = rng.randint(1, 40)
        t = rng.randint(0, 50)
        neighbors = [f"n{i:02d}" for i in range(n)]
        two_hops = [f"t{j:02d}" for j in range(t)]
        coverage = {
            nb: {th for th in two_hops if rng.random() < 0.2}
            for nb in neighbors
        }
        willingness = {nb: rng.choice(wills) for nb in neighbors
                       if rng.random() < 0.7}
        degree = {nb: rng.randint(0, 10) for nb in neighbors
                  if rng.random() < 0.7}
        kwargs = dict(
            symmetric_neighbors=set(neighbors),
            coverage=coverage,
            willingness=willingness,
            neighbor_degree=degree,
            local_address="self",
            prune_redundant=rng.random() < 0.7,
            redundancy=rng.choice([0, 0, 1, 2]),
        )
        scalar = select_mprs(use_numpy=False, **kwargs)
        vector = select_mprs(use_numpy=True, **kwargs)
        assert scalar.mprs == vector.mprs
        # The pruning step's stable sort observes set iteration order, so
        # even the insertion sequence must match.
        assert list(scalar.mprs) == list(vector.mprs)
        assert scalar.uncovered == vector.uncovered
        assert scalar.isolated_two_hops == vector.isolated_two_hops
        assert scalar.coverage == vector.coverage


def test_distance_loss_probabilities_elementwise_exact():
    model = DistanceLossModel(radio_range=250.0, max_loss=0.8, exponent=2.0,
                              reliable_fraction=0.5)
    rng = random.Random(3)
    distances = [rng.uniform(0.0, 300.0) for _ in range(200)]
    distances += [0.0, 125.0, 125.0000001, 250.0, 300.0]
    vectorised = model.loss_probabilities(distances)
    for d, p in zip(distances, vectorised):
        assert float(p) == model.loss_probability(d)


def test_trust_update_all_vector_matches_scalar():
    import repro.trust.manager as manager_module
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

    original = manager_module.numpy_or_none
    manager_module.numpy_or_none = lambda: None
    try:
        scalar_results = scalar_manager.update_all(scalar_evidences, now=2.0)
    finally:
        manager_module.numpy_or_none = original
    vector_results = vector_manager.update_all(vector_evidences, now=2.0)

    assert scalar_results == vector_results
    assert list(scalar_results) == list(vector_results)
    assert scalar_manager.as_dict() == vector_manager.as_dict()
    for subject in scalar_results:
        assert (scalar_manager.history_of(subject)
                == vector_manager.history_of(subject))


def test_batch_multipath_trust_matches_scalar():
    from repro.trust.propagation import batch_multipath_trust, multipath_trust

    rng = random.Random(5)
    pairs_by_subject = {
        f"s{i}": [(rng.choice([0.0, 1e-13, rng.random()]), rng.uniform(-1, 1))
                  for _ in range(rng.randint(0, 6))]
        for i in range(40)
    }
    batch = batch_multipath_trust(pairs_by_subject)
    assert batch == {s: multipath_trust(p) for s, p in pairs_by_subject.items()}
