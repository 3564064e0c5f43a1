"""Tests for placement and mobility models."""

from __future__ import annotations

import random

import pytest

from repro.netsim.mobility import (
    GaussMarkovMobility,
    GRID_SPACING,
    GridPlacement,
    RandomWalkMobility,
    RandomWaypointMobility,
    ReferencePointGroupMobility,
    StaticPlacement,
    UniformRandomPlacement,
)
from repro.netsim.network import Network
from repro.netsim.engine import Simulator


NODE_IDS = [f"n{i}" for i in range(9)]


def test_static_placement_returns_given_positions():
    placement = StaticPlacement({"a": (1.0, 2.0), "b": (3.0, 4.0)})
    assert placement.place(["a", "b"]) == {"a": (1.0, 2.0), "b": (3.0, 4.0)}


def test_static_placement_missing_node_raises():
    placement = StaticPlacement({"a": (1.0, 2.0)})
    with pytest.raises(ValueError):
        placement.place(["a", "b"])


def test_grid_placement_spacing_and_shape():
    placement = GridPlacement()
    positions = placement.place(NODE_IDS)
    assert len(positions) == 9
    assert positions["n0"] == (0.0, 0.0)
    assert positions["n1"] == (GRID_SPACING, 0.0)
    assert positions["n3"] == (0.0, GRID_SPACING)
    # Three nodes fill a 2-column grid: the third starts the second row.
    assert GridPlacement().place(["a", "b", "c"])["c"] == (0.0, GRID_SPACING)


def test_uniform_random_placement_within_bounds():
    placement = UniformRandomPlacement(width=50.0, height=20.0, rng=random.Random(5))
    positions = placement.place(NODE_IDS)
    for x, y in positions.values():
        assert 0.0 <= x <= 50.0
        assert 0.0 <= y <= 20.0


def test_uniform_random_placement_deterministic_with_seed():
    a = UniformRandomPlacement(rng=random.Random(9)).place(NODE_IDS)
    b = UniformRandomPlacement(rng=random.Random(9)).place(NODE_IDS)
    assert a == b


def test_random_waypoint_moves_nodes_over_time():
    mobility = RandomWaypointMobility(width=500.0, height=500.0, min_speed=10.0,
                                      max_speed=20.0, rng=random.Random(3))
    network = Network(simulator=Simulator(), mobility=mobility, seed=3)
    network.add_nodes(["a", "b"])
    before = dict(network.positions)
    network.run(until=20.0)
    after = dict(network.positions)
    assert any(before[n] != after[n] for n in before)


def test_random_waypoint_stays_within_bounds():
    mobility = RandomWaypointMobility(width=100.0, height=100.0, min_speed=20.0,
                                      max_speed=40.0, rng=random.Random(11))
    network = Network(simulator=Simulator(), mobility=mobility, seed=11)
    network.add_nodes(NODE_IDS)
    network.run(until=60.0)
    for x, y in network.positions.values():
        assert -1e-6 <= x <= 100.0 + 1e-6
        assert -1e-6 <= y <= 100.0 + 1e-6


def test_random_walk_moves_and_stays_in_bounds():
    mobility = RandomWalkMobility(width=50.0, height=50.0, max_step=5.0,
                                  rng=random.Random(2))
    network = Network(simulator=Simulator(), mobility=mobility, seed=2)
    network.add_nodes(["a", "b", "c"])
    before = dict(network.positions)
    network.run(until=30.0)
    after = dict(network.positions)
    assert any(before[n] != after[n] for n in before)
    for x, y in after.values():
        assert 0.0 <= x <= 50.0
        assert 0.0 <= y <= 50.0


def test_gauss_markov_moves_and_stays_in_bounds():
    mobility = GaussMarkovMobility(width=200.0, height=200.0, mean_speed=5.0,
                                   rng=random.Random(4))
    network = Network(simulator=Simulator(), mobility=mobility, seed=4)
    network.add_nodes(NODE_IDS)
    before = dict(network.positions)
    network.run(until=60.0)
    after = dict(network.positions)
    assert any(before[n] != after[n] for n in before)
    for x, y in after.values():
        assert 0.0 <= x <= 200.0
        assert 0.0 <= y <= 200.0


def test_gauss_markov_is_deterministic_with_seed():
    def run():
        mobility = GaussMarkovMobility(width=300.0, height=300.0,
                                       rng=random.Random(17))
        network = Network(simulator=Simulator(), mobility=mobility, seed=17)
        network.add_nodes(NODE_IDS)
        network.run(until=25.0)
        return dict(network.positions)

    assert run() == run()


def test_gauss_markov_motion_is_temporally_correlated():
    """With alpha close to 1, consecutive steps point the same way —
    the property that distinguishes Gauss-Markov from a random walk."""
    mobility = GaussMarkovMobility(width=10_000.0, height=10_000.0,
                                   mean_speed=5.0, alpha=0.95,
                                   rng=random.Random(6))
    network = Network(simulator=Simulator(), mobility=mobility, seed=6)
    network.add_nodes(["a"])
    # Re-centre so edge reflections cannot interfere with the measurement.
    network.positions["a"] = (5_000.0, 5_000.0)
    positions = []
    for step in range(1, 11):
        network.run(until=float(step))
        positions.append(network.positions["a"])
    steps = [(x2 - x1, y2 - y1) for (x1, y1), (x2, y2)
             in zip(positions, positions[1:])]
    dots = [
        ax * bx + ay * by
        for (ax, ay), (bx, by) in zip(steps, steps[1:])
    ]
    assert all(dot > 0.0 for dot in dots)  # never reverses within 10 steps


def test_rpgm_members_follow_their_reference_point():
    mobility = ReferencePointGroupMobility(width=1000.0, height=1000.0,
                                           member_radius=80.0,
                                           min_speed=5.0, max_speed=10.0,
                                           rng=random.Random(8))
    network = Network(simulator=Simulator(), mobility=mobility, seed=8)
    network.add_nodes(NODE_IDS)
    network.run(until=40.0)
    # Every member sits inside its group's disc (clamped at the edges).
    for node_id, (x, y) in network.positions.items():
        group = mobility._group_of[node_id]
        rx, ry = mobility._references[group]
        ex = min(max(rx + mobility._offsets[node_id][0], 0.0), 1000.0)
        ey = min(max(ry + mobility._offsets[node_id][1], 0.0), 1000.0)
        assert (x, y) == (ex, ey)
        assert 0.0 <= x <= 1000.0 and 0.0 <= y <= 1000.0


def test_rpgm_groups_stay_clustered_while_moving():
    mobility = ReferencePointGroupMobility(width=2000.0, height=2000.0,
                                           member_radius=50.0,
                                           min_speed=2.0, max_speed=6.0,
                                           rng=random.Random(12))
    network = Network(simulator=Simulator(), mobility=mobility, seed=12)
    network.add_nodes([f"m{i}" for i in range(12)])
    before = dict(network.positions)
    network.run(until=50.0)
    after = dict(network.positions)
    assert any(before[n] != after[n] for n in before)
    # Intra-group spread is bounded by the disc diameter.
    groups = {}
    for node_id, position in after.items():
        groups.setdefault(mobility._group_of[node_id], []).append(position)
    for members in groups.values():
        xs = [p[0] for p in members]
        ys = [p[1] for p in members]
        assert max(xs) - min(xs) <= 100.0 + 1e-6
        assert max(ys) - min(ys) <= 100.0 + 1e-6


def test_static_install_is_noop():
    placement = StaticPlacement({"a": (0.0, 0.0)})
    network = Network(simulator=Simulator(), mobility=placement)
    network.add_nodes(["a"])
    network.run(until=10.0)
    assert network.positions["a"] == (0.0, 0.0)
