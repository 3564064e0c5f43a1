"""Control-plane state is computed when read, and reads see eager results.

A node whose store does not record ``MPR`` defers MPR selection to the next
``mpr_set`` read or housekeeping, and no node computes routes unless a
``routing_table`` read or a recorded ``ROUTE`` trail asks.  These tests pin
the deferred results to eager ones and guard the laziness itself: the
per-layer counters of the benchmark are not gated, so an eager recompute
coming back would otherwise go unnoticed.  The same holds for a HELLO's
declared sets, built once by its sender for all of its receivers.
"""

from __future__ import annotations

import random

import pytest

import repro.olsr.node as node_module
from repro.experiments.backends import (
    build_netsim_scenario,
    drive_netsim_scenario,
    scenario_config_from_params,
)
from repro.logs.records import LogCategory
from repro.logs.store import LogStore
from repro.netsim.engine import Simulator
from repro.netsim.medium import DistanceLossModel, UnitDiskPropagation, WirelessMedium
from repro.netsim.mobility import GaussMarkovMobility
from repro.netsim.network import Network
from repro.olsr.messages import HelloMessage
from repro.olsr.node import OlsrNode
from repro.olsr.routing import compute_routing_table


def _mobile_network(seed, node_count, area, categories=()):
    """A started Gauss–Markov OLSR network, 8 m/s, distance loss up to 0.3.

    Every store records ``categories``; each HELLO is recorded as emitted,
    ``(time, node, sorted MPR neighbours)``, by an identity HELLO mutator.
    """
    simulator = Simulator()
    medium = WirelessMedium(
        simulator,
        propagation=UnitDiskPropagation(radio_range=250.0),
        loss_model=DistanceLossModel(radio_range=250.0, max_loss=0.3,
                                     rng=random.Random(seed)),
    )
    network = Network(simulator=simulator, medium=medium, mobility=GaussMarkovMobility(
        width=area, height=area, mean_speed=8.0, rng=random.Random(seed)))
    node_ids = [f"n{i:02d}" for i in range(node_count)]
    network.add_nodes(node_ids)
    hellos = []

    def record_hello(hello, node):
        hellos.append((node.now, node.node_id, sorted(hello.mpr_neighbors())))
        return hello

    nodes = {}
    for node_id in node_ids:
        node = OlsrNode(node_id, network,
                        log_store=LogStore(node_id, categories=categories))
        node.hello_mutators.append(record_hello)
        nodes[node_id] = node
    for node in nodes.values():
        node.start()
    return network, nodes, hellos


def _frame_counts(network):
    stats = network.medium.stats
    return (stats.frames_sent, stats.frames_delivered, stats.frames_lost,
            stats.frames_out_of_range)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_deferred_mpr_selection_emits_the_eager_hellos(seed):
    """Every store recording MPR (eager) vs none (deferred): same HELLOs."""
    runs = []
    for categories in ((LogCategory.MPR,), ()):
        network, _, hellos = _mobile_network(seed, node_count=32, area=1000.0,
                                             categories=categories)
        network.run(until=60.0)
        runs.append((hellos, _frame_counts(network)))
    (eager_hellos, eager_frames), (lazy_hellos, lazy_frames) = runs
    assert len(eager_hellos) > 32 * 20
    assert lazy_hellos == eager_hellos
    assert lazy_frames == eager_frames


def _mpr_trail(node):
    return [(r.time, r.event, sorted(r.fields.items()))
            for r in node.log.by_category(LogCategory.MPR)]


def test_mid_run_mpr_subscription_records_the_eager_suffix():
    """A store that starts recording MPR mid-run logs what an eager one would.

    Each run subscribes every node at its own time; 6 runs of 16 nodes
    sweep 96 subscribe times between 7 and 40 s.
    """
    end = 45.0
    network, always, _ = _mobile_network(5, node_count=16, area=700.0,
                                         categories=(LogCategory.MPR,))
    network.run(until=end)
    reference = {node_id: _mpr_trail(node) for node_id, node in always.items()}
    times = [7.0 + 33.0 * (k + 0.5) / 96 for k in range(96)]
    for run in range(6):
        network, nodes, _ = _mobile_network(5, node_count=16, area=700.0)
        schedule = sorted(zip(times[run::6], sorted(nodes)))
        for at, node_id in schedule:
            network.run(until=at)
            nodes[node_id].log.subscribe("late-reader", [LogCategory.MPR])
        network.run(until=end)
        for at, node_id in schedule:
            suffix = [entry for entry in reference[node_id] if entry[0] > at]
            assert _mpr_trail(nodes[node_id]) == suffix, (node_id, at)


# ------------------------------------------------------------------- CI guard
#: The benchmark's mobile-churn cell at a quarter of its nodes and area (the
#: same density): 16 Gauss–Markov nodes at 8 m/s in 500 m, distance loss.
_CELL = {"total_nodes": 16, "area_size": 500.0, "liar_fraction": 0.1,
         "loss_model": "distance", "loss_probability": 0.3,
         "mobility_model": "gauss-markov", "max_speed": 8.0,
         "warmup": 12.0, "attack_start": 13.0, "cycles": 1, "cycle_length": 5.0}


class _Counted:
    """Counts the route computations and MPR selections ``OlsrNode`` runs."""

    def __init__(self, monkeypatch):
        self.routes = self.mprs = 0
        compute, select = node_module.compute_routing_table, node_module.select_mprs

        def count_routes(*args, **kwargs):
            self.routes += 1
            return compute(*args, **kwargs)

        def count_mprs(*args, **kwargs):
            self.mprs += 1
            return select(*args, **kwargs)

        monkeypatch.setattr(node_module, "compute_routing_table", count_routes)
        monkeypatch.setattr(node_module, "select_mprs", count_mprs)


def _counted_cell(record_mpr):
    with pytest.MonkeyPatch.context() as patch:
        calls = _Counted(patch)
        config = scenario_config_from_params(_CELL, seed=7)
        scenario = build_netsim_scenario(config, _CELL)
        if record_mpr:
            for node in scenario.nodes.values():
                node.log.subscribe("mpr-reader", [LogCategory.MPR])
        drive_netsim_scenario(scenario, config, _CELL)
        return scenario, calls.routes, calls.mprs


def test_a_netsim_cell_computes_routes_only_on_read(monkeypatch):
    scenario, routes, _ = _counted_cell(record_mpr=False)
    assert not any(LogCategory.ROUTE in node.log.recorded
                   for node in scenario.nodes.values())
    assert routes == 0
    calls = _Counted(monkeypatch)
    router = scenario.victim.router
    table = router.routing_table
    assert calls.routes == 1
    assert {e.destination: (e.next_hop, e.distance) for e in table} == {
        e.destination: (e.next_hop, e.distance)
        for e in compute_routing_table(router.node_id, router.neighbor_set,
                                       router.two_hop_set,
                                       router.topology_set).values()}
    assert len(table) > 0


def test_a_netsim_cell_defers_unrecorded_mpr_selection():
    _, _, lazy = _counted_cell(record_mpr=False)
    _, _, eager = _counted_cell(record_mpr=True)
    assert 0 < lazy < eager / 2
    # Selecting at the top of ``build_hello`` instead of at the first
    # symmetric link, for one, runs selections an eager node never runs.
    assert (lazy, eager) == (246, 642)


def test_a_netsim_cell_declares_each_hello_once(monkeypatch):
    """Receivers and log sites share the sender's declared sets."""
    builds = []
    declare = HelloMessage.declare

    def counted(hello, index):
        builds.append(None)
        return declare(hello, index)

    monkeypatch.setattr(HelloMessage, "declare", counted)
    config = scenario_config_from_params(_CELL, seed=7)
    scenario = build_netsim_scenario(config, _CELL)
    drive_netsim_scenario(scenario, config, _CELL)
    routers = [node.router for node in scenario.nodes.values()]
    sent = sum(router.stats.per_type_sent["HELLO"] for router in routers)
    received = sum(router.stats.per_type_received["HELLO"] for router in routers)
    assert received > 4 * sent > 0
    assert len(builds) <= sent
