"""Tests for the wireless medium: propagation, loss, delivery."""

from __future__ import annotations

import random

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.medium import (
    BernoulliLossModel,
    DistanceLossModel,
    PerfectChannel,
    UnitDiskPropagation,
    WirelessMedium,
    distance,
)
from repro.netsim.network import PositionTable
from repro.netsim.packet import BROADCAST_ADDRESS, Frame


class Sink:
    """Records received frames."""

    def __init__(self):
        self.received = []

    def receive(self, frame, now):
        self.received.append((frame, now))


def build_medium(positions, propagation=None, loss_model=None):
    """A medium over ``positions`` (a :class:`PositionTable`, edited in place
    by the tests) with one :class:`Sink` per node."""
    sim = Simulator()
    medium = WirelessMedium(
        sim,
        propagation=propagation or UnitDiskPropagation(radio_range=250.0),
        loss_model=loss_model or PerfectChannel(),
    )
    medium.bind_positions(positions)
    sinks = {}
    for node_id in positions:
        sink = Sink()
        medium.register(node_id, sink)
        sinks[node_id] = sink
    return sim, medium, sinks


def test_distance_euclidean():
    assert distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)


def test_unit_disk_in_range_boundary():
    model = UnitDiskPropagation(radio_range=100.0)
    assert model.in_range((0, 0), (100, 0))
    assert not model.in_range((0, 0), (100.1, 0))


def test_broadcast_reaches_only_nodes_in_range():
    positions = PositionTable({"a": (0, 0), "b": (200, 0), "c": (600, 0)})
    sim, medium, sinks = build_medium(positions)
    medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload="x"))
    sim.run()
    assert len(sinks["b"].received) == 1
    assert len(sinks["c"].received) == 0
    assert medium.stats.frames_out_of_range == 1


def test_transmit_from_unknown_source_rejected():
    positions = PositionTable({"a": (0, 0)})
    sim, medium, _ = build_medium(positions)
    with pytest.raises(ValueError):
        medium.transmit(Frame(source="ghost", destination=BROADCAST_ADDRESS, payload="x"))


def test_sender_never_receives_its_own_broadcast():
    positions = PositionTable({"a": (0, 0), "b": (50, 0)})
    sim, medium, sinks = build_medium(positions)
    medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload="x"))
    sim.run()
    assert len(sinks["a"].received) == 0
    assert len(sinks["b"].received) == 1


def test_delivery_applies_propagation_delay():
    positions = PositionTable({"a": (0, 0), "b": (50, 0)})
    sim, medium, sinks = build_medium(positions)
    medium.propagation_delay = 0.01
    medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload="x"))
    sim.run()
    _, received_at = sinks["b"].received[0]
    assert received_at == pytest.approx(0.01)


def test_bernoulli_loss_all_or_nothing():
    positions = PositionTable({"a": (0, 0), "b": (50, 0)})
    sim, medium, sinks = build_medium(
        positions, loss_model=BernoulliLossModel(1.0, rng=random.Random(0)))
    for _ in range(10):
        medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload="x"))
    sim.run()
    assert len(sinks["b"].received) == 0
    assert medium.stats.frames_lost == 10


def test_bernoulli_loss_probability_validated():
    with pytest.raises(ValueError):
        BernoulliLossModel(1.5)


def test_bernoulli_loss_statistical_behaviour():
    model = BernoulliLossModel(0.3, rng=random.Random(42))
    losses = sum(model.is_lost(Frame("a", "b", None), (0, 0), (1, 1)) for _ in range(5000))
    assert 0.25 < losses / 5000 < 0.35


def test_distance_loss_increases_with_distance():
    model = DistanceLossModel(radio_range=100.0, max_loss=0.8, reliable_fraction=0.5)
    assert model.loss_probability(40.0) == 0.0
    assert model.loss_probability(60.0) < model.loss_probability(90.0)
    assert model.loss_probability(100.0) == pytest.approx(0.8)


def test_no_collision_when_transmissions_are_spaced():
    # The medium models no collisions: ``frames_collided`` stays 0.
    positions = PositionTable({"a": (0, 0), "r": (5, 5)})
    sim, medium, sinks = build_medium(positions)
    medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload="x"))
    sim.run()
    sim.schedule(1.0, lambda: medium.transmit(
        Frame(source="a", destination=BROADCAST_ADDRESS, payload="y")))
    sim.run()
    assert medium.stats.frames_collided == 0
    assert len(sinks["r"].received) == 2


def test_neighbors_of_uses_current_positions():
    positions = PositionTable({"a": (0, 0), "b": (200, 0), "c": (600, 0)})
    sim, medium, _ = build_medium(positions)
    assert medium.neighbors_of("a") == ["b"]
    positions["c"] = (100, 0)
    assert set(medium.neighbors_of("a")) == {"b", "c"}


def test_connectivity_matrix_symmetric_for_unit_disk():
    positions = PositionTable({"a": (0, 0), "b": (200, 0), "c": (400, 0)})
    _, medium, _ = build_medium(positions)
    matrix = medium.connectivity_matrix()
    assert matrix["a"] == ["b"]
    assert set(matrix["b"]) == {"a", "c"}
    assert matrix["c"] == ["b"]


def test_duplicate_registration_rejected():
    positions = PositionTable({"a": (0, 0)})
    _, medium, _ = build_medium(positions)
    with pytest.raises(ValueError):
        medium.register("a", Sink())


def test_stats_delivery_and_loss_ratios():
    positions = PositionTable({"a": (0, 0), "b": (50, 0)})
    sim, medium, _ = build_medium(
        positions, loss_model=BernoulliLossModel(0.5, rng=random.Random(7)))
    for _ in range(200):
        medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload="x"))
    sim.run()
    stats = medium.stats
    assert stats.frames_sent == 200
    assert stats.frames_delivered + stats.frames_lost == 200
    assert 0.3 < stats.delivery_ratio < 0.7
    assert stats.as_dict()["loss_ratio"] == pytest.approx(stats.loss_ratio)


def test_loss_models_default_rngs_are_deterministic():
    """Omitting ``rng`` must not silently break run-to-run determinism."""
    frame = Frame("a", "b", None)
    bernoulli_a, bernoulli_b = BernoulliLossModel(0.5), BernoulliLossModel(0.5)
    first = [bernoulli_a.is_lost(frame, (0, 0), (1, 1)) for _ in range(64)]
    second = [bernoulli_b.is_lost(frame, (0, 0), (1, 1)) for _ in range(64)]
    assert first == second
    assert True in first and False in first  # an actual random sequence
    far = ((0.0, 0.0), (240.0, 0.0))
    distance_a, distance_b = DistanceLossModel(), DistanceLossModel()
    first = [distance_a.is_lost(frame, *far) for _ in range(64)]
    second = [distance_b.is_lost(frame, *far) for _ in range(64)]
    assert first == second


def test_replacing_the_loss_model_takes_effect_at_the_next_frame():
    positions = PositionTable({"a": (0, 0), "b": (200, 0), "c": (100, 0)})
    sim, medium, sinks = build_medium(positions)
    medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload=0))
    medium.loss_model = BernoulliLossModel(1.0, rng=random.Random(0))
    medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload=1))
    sim.run()
    assert [frame.payload for frame, _ in sinks["b"].received] == [0]
    assert medium.stats.frames_lost == 2
    # Distance loss draws once per receiver, in order, against each
    # receiver's probability: exactly what ``is_lost`` draws.
    twin = DistanceLossModel(radio_range=250.0, max_loss=0.9, rng=random.Random(4))
    medium.loss_model = DistanceLossModel(radio_range=250.0, max_loss=0.9,
                                          rng=random.Random(4))
    expected = {"b": 0, "c": 0}
    for k in range(2, 42):
        medium.transmit(Frame(source="a", destination=BROADCAST_ADDRESS, payload=k))
        for receiver in ("b", "c"):  # registration order
            if not twin.is_lost(Frame("a", receiver, None), positions["a"],
                                positions[receiver]):
                expected[receiver] += 1
    sim.run()
    assert len(sinks["b"].received) - 1 == expected["b"] < 40
    assert len(sinks["c"].received) - 1 == expected["c"] == 40


def test_unsupported_loss_model_rejected():
    class Custom:
        def is_lost(self, frame, sender, receiver):
            return False

    with pytest.raises(TypeError):
        WirelessMedium(Simulator(), loss_model=Custom())
