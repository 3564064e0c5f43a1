"""Node placement and mobility models.

Placement models assign initial coordinates; mobility models additionally
update coordinates over simulated time.  Models operate on a mutable mapping
``positions: dict[node_id, (x, y)]`` owned by the network, so the medium
always sees the current coordinates.

Ticks
-----
Each mobility model advances *all* nodes inside one periodic engine event,
in one pure-Python loop over the position table.  A numpy tick measured no
faster at the benchmark's 64 Gauss–Markov nodes; a future one must keep
calling ``math.hypot``, since ``np.hypot`` differs from it in the last ulp
on some inputs and one flipped arrival decision diverges a whole run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, Sequence, Tuple

Position = Tuple[float, float]


class MobilityModel(Protocol):
    """Protocol implemented by all placement / mobility models."""

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        """Return the initial position of every node."""
        ...

    def install(self, network) -> None:
        """Attach the model to the network (schedule periodic moves if mobile)."""
        ...


@dataclass
class StaticPlacement:
    """Fixed, caller-supplied coordinates."""

    positions: Dict[str, Position]

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        missing = [nid for nid in node_ids if nid not in self.positions]
        if missing:
            raise ValueError(f"no position supplied for nodes: {missing}")
        return {nid: self.positions[nid] for nid in node_ids}

    def install(self, network) -> None:  # static: nothing to schedule
        return None


@dataclass
class GridPlacement:
    """Place nodes on a regular grid with the given ``spacing``.

    The grid is as square as possible; spacing is chosen relative to the radio
    range so that the resulting topology is multi-hop (important for the
    2-hop-neighbour investigations of the paper).
    """

    spacing: float = 180.0
    origin: Position = (0.0, 0.0)
    columns: Optional[int] = None

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        n = len(node_ids)
        cols = self.columns or max(1, int(math.ceil(math.sqrt(n))))
        ox, oy = self.origin
        positions: Dict[str, Position] = {}
        for index, nid in enumerate(node_ids):
            row, col = divmod(index, cols)
            positions[nid] = (ox + col * self.spacing, oy + row * self.spacing)
        return positions

    def install(self, network) -> None:
        return None


@dataclass
class UniformRandomPlacement:
    """Uniform random placement in a ``width`` × ``height`` rectangle."""

    width: float = 1000.0
    height: float = 1000.0
    rng: random.Random = field(default_factory=random.Random)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        return {
            nid: (self.rng.uniform(0.0, self.width), self.rng.uniform(0.0, self.height))
            for nid in node_ids
        }

    def install(self, network) -> None:
        return None


@dataclass
class RandomWaypointMobility:
    """Random-waypoint mobility.

    Each node picks a random destination and speed in ``[min_speed, max_speed]``,
    moves there in straight line, pauses ``pause_time`` seconds, then repeats.
    Positions are updated every ``update_interval`` seconds of simulated time.
    """

    width: float = 1000.0
    height: float = 1000.0
    min_speed: float = 1.0
    max_speed: float = 5.0
    pause_time: float = 2.0
    update_interval: float = 1.0
    rng: random.Random = field(default_factory=random.Random)
    _targets: Dict[str, Position] = field(default_factory=dict)
    _speeds: Dict[str, float] = field(default_factory=dict)
    _pause_until: Dict[str, float] = field(default_factory=dict)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        positions = {
            nid: (self.rng.uniform(0.0, self.width), self.rng.uniform(0.0, self.height))
            for nid in node_ids
        }
        for nid in node_ids:
            self._pick_new_target(nid)
        return positions

    def install(self, network) -> None:
        network.simulator.schedule_periodic(
            self.update_interval,
            self._advance,
            network,
            start_delay=self.update_interval,
        )

    # internal ------------------------------------------------------------
    def _pick_new_target(self, node_id: str) -> None:
        self._targets[node_id] = (
            self.rng.uniform(0.0, self.width),
            self.rng.uniform(0.0, self.height),
        )
        self._speeds[node_id] = self.rng.uniform(self.min_speed, self.max_speed)

    def _advance(self, network) -> None:
        now = network.simulator.now
        for node_id, position in list(network.positions.items()):
            if self._pause_until.get(node_id, 0.0) > now:
                continue
            target = self._targets.get(node_id)
            if target is None:
                self._pick_new_target(node_id)
                target = self._targets[node_id]
            speed = self._speeds.get(node_id, self.min_speed)
            step = speed * self.update_interval
            dx, dy = target[0] - position[0], target[1] - position[1]
            dist = math.hypot(dx, dy)
            if dist <= step:
                network.positions[node_id] = target
                self._pause_until[node_id] = now + self.pause_time
                self._pick_new_target(node_id)
            else:
                network.positions[node_id] = (
                    position[0] + dx / dist * step,
                    position[1] + dy / dist * step,
                )


@dataclass
class RandomWalkMobility:
    """Brownian-style random walk: each update, move a random small step."""

    width: float = 1000.0
    height: float = 1000.0
    max_step: float = 10.0
    update_interval: float = 1.0
    rng: random.Random = field(default_factory=random.Random)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        return {
            nid: (self.rng.uniform(0.0, self.width), self.rng.uniform(0.0, self.height))
            for nid in node_ids
        }

    def install(self, network) -> None:
        network.simulator.schedule_periodic(
            self.update_interval,
            self._advance,
            network,
            start_delay=self.update_interval,
        )

    def _advance(self, network) -> None:
        for node_id, (x, y) in list(network.positions.items()):
            nx = x + self.rng.uniform(-self.max_step, self.max_step)
            ny = y + self.rng.uniform(-self.max_step, self.max_step)
            network.positions[node_id] = (
                min(max(nx, 0.0), self.width),
                min(max(ny, 0.0), self.height),
            )


@dataclass
class GaussMarkovMobility:
    """Gauss–Markov mobility (temporally correlated speed and heading).

    Each node carries a speed and a direction updated every
    ``update_interval`` seconds by the Gauss–Markov recurrence::

        s_t = α·s_{t−1} + (1−α)·s̄ + √(1−α²)·N(0, σ_s)
        d_t = α·d_{t−1} + (1−α)·d̄ + √(1−α²)·N(0, σ_d)

    with memory factor ``alpha`` ∈ [0, 1]: 1 keeps the previous velocity
    forever (linear motion), 0 degenerates to a memoryless random walk.
    Unlike random waypoint, movement has no pause/teleport discontinuities
    and no density concentration at the area centre, so neighbourhoods churn
    smoothly — a better model for vehicles and patrols.  Nodes bounce off the
    area edges by reflecting their mean direction.
    """

    width: float = 1000.0
    height: float = 1000.0
    mean_speed: float = 3.0
    alpha: float = 0.75
    speed_stddev: float = 1.0
    direction_stddev: float = 0.6
    update_interval: float = 1.0
    rng: random.Random = field(default_factory=random.Random)
    _speeds: Dict[str, float] = field(default_factory=dict)
    _directions: Dict[str, float] = field(default_factory=dict)
    _mean_directions: Dict[str, float] = field(default_factory=dict)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        positions = {
            nid: (self.rng.uniform(0.0, self.width), self.rng.uniform(0.0, self.height))
            for nid in node_ids
        }
        for nid in node_ids:
            self._speeds[nid] = max(0.0, self.rng.gauss(self.mean_speed, self.speed_stddev))
            direction = self.rng.uniform(0.0, 2.0 * math.pi)
            self._directions[nid] = direction
            self._mean_directions[nid] = direction
        return positions

    def install(self, network) -> None:
        network.simulator.schedule_periodic(
            self.update_interval,
            self._advance,
            network,
            start_delay=self.update_interval,
        )

    def _advance(self, network) -> None:
        a = min(max(self.alpha, 0.0), 1.0)
        noise = math.sqrt(max(0.0, 1.0 - a * a))
        for node_id, (x, y) in list(network.positions.items()):
            speed = self._speeds.get(node_id, self.mean_speed)
            direction = self._directions.get(node_id, 0.0)
            mean_direction = self._mean_directions.get(node_id, direction)
            speed = (a * speed + (1.0 - a) * self.mean_speed
                     + noise * self.rng.gauss(0.0, self.speed_stddev))
            direction = (a * direction + (1.0 - a) * mean_direction
                         + noise * self.rng.gauss(0.0, self.direction_stddev))
            speed = max(0.0, speed)
            step = speed * self.update_interval
            nx = x + step * math.cos(direction)
            ny = y + step * math.sin(direction)
            # Reflect off the edges and flip the mean direction so the
            # recurrence keeps pulling the node back into the area.
            if nx < 0.0 or nx > self.width:
                nx = min(max(nx, 0.0), self.width)
                direction = math.pi - direction
                mean_direction = math.pi - mean_direction
            if ny < 0.0 or ny > self.height:
                ny = min(max(ny, 0.0), self.height)
                direction = -direction
                mean_direction = -mean_direction
            self._speeds[node_id] = speed
            self._directions[node_id] = direction
            self._mean_directions[node_id] = mean_direction
            network.positions[node_id] = (nx, ny)


@dataclass
class ReferencePointGroupMobility:
    """Reference-point group mobility (RPGM).

    Nodes are partitioned into ``group_count`` groups.  Each group has a
    *reference point* performing random-waypoint motion; every member
    follows its group's reference point while wandering inside a disc of
    radius ``member_radius`` around it.  This produces the clustered,
    platoon-like topologies of tactical MANETs — the setting the source
    paper targets — where whole neighbourhoods move together and inter-group
    links are the scarce, churning resource.
    """

    width: float = 1000.0
    height: float = 1000.0
    group_count: int = 3
    member_radius: float = 120.0
    min_speed: float = 1.0
    max_speed: float = 5.0
    update_interval: float = 1.0
    rng: random.Random = field(default_factory=random.Random)
    _group_of: Dict[str, int] = field(default_factory=dict)
    _references: Dict[int, Position] = field(default_factory=dict)
    _targets: Dict[int, Position] = field(default_factory=dict)
    _speeds: Dict[int, float] = field(default_factory=dict)
    _offsets: Dict[str, Position] = field(default_factory=dict)

    def place(self, node_ids: Sequence[str]) -> Dict[str, Position]:
        groups = max(1, min(self.group_count, len(node_ids)))
        positions: Dict[str, Position] = {}
        for group in range(groups):
            self._references[group] = (
                self.rng.uniform(0.0, self.width),
                self.rng.uniform(0.0, self.height),
            )
            self._pick_group_target(group)
        for index, nid in enumerate(node_ids):
            group = index % groups
            self._group_of[nid] = group
            self._offsets[nid] = self._random_offset()
            positions[nid] = self._member_position(group, nid)
        return positions

    def install(self, network) -> None:
        network.simulator.schedule_periodic(
            self.update_interval,
            self._advance,
            network,
            start_delay=self.update_interval,
        )

    # internal ------------------------------------------------------------
    def _random_offset(self) -> Position:
        angle = self.rng.uniform(0.0, 2.0 * math.pi)
        radius = self.member_radius * math.sqrt(self.rng.random())
        return (radius * math.cos(angle), radius * math.sin(angle))

    def _pick_group_target(self, group: int) -> None:
        self._targets[group] = (
            self.rng.uniform(0.0, self.width),
            self.rng.uniform(0.0, self.height),
        )
        self._speeds[group] = self.rng.uniform(self.min_speed, self.max_speed)

    def _member_position(self, group: int, node_id: str) -> Position:
        rx, ry = self._references[group]
        ox, oy = self._offsets[node_id]
        return (
            min(max(rx + ox, 0.0), self.width),
            min(max(ry + oy, 0.0), self.height),
        )

    def _advance_references(self) -> None:
        for group, reference in list(self._references.items()):
            target = self._targets[group]
            speed = self._speeds[group]
            step = speed * self.update_interval
            dx, dy = target[0] - reference[0], target[1] - reference[1]
            dist = math.hypot(dx, dy)
            if dist <= step:
                self._references[group] = target
                self._pick_group_target(group)
            else:
                self._references[group] = (
                    reference[0] + dx / dist * step,
                    reference[1] + dy / dist * step,
                )

    def _advance(self, network) -> None:
        self._advance_references()
        for node_id in list(network.positions):
            group = self._group_of.get(node_id)
            if group is None:
                continue
            # Members drift within the disc: small random perturbation of the
            # offset, clamped back to member_radius.
            ox, oy = self._offsets[node_id]
            ox += self.rng.uniform(-2.0, 2.0)
            oy += self.rng.uniform(-2.0, 2.0)
            norm = math.hypot(ox, oy)
            if norm > self.member_radius:
                scale = self.member_radius / norm
                ox, oy = ox * scale, oy * scale
            self._offsets[node_id] = (ox, oy)
            network.positions[node_id] = self._member_position(group, node_id)
