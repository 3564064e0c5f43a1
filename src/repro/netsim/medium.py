"""Wireless medium: propagation, loss and collision models.

The medium implements an idealised single-channel broadcast radio:

* A :class:`PropagationModel` decides *who can hear whom* (connectivity).
* A loss model decides, per receiver, whether an otherwise reachable frame is
  actually delivered (captures fading, noise, obstacles — the unreliability
  the paper points at when discussing evidence ``E3``).
* An optional :class:`CollisionModel` drops frames whose on-air intervals
  overlap at a receiver, modelling the "high level of collisions" mentioned
  in the paper's Section IV-C.

Spatial fast path
-----------------
Broadcast candidate selection, :meth:`WirelessMedium.neighbors_of` and
:meth:`WirelessMedium.connectivity_matrix` are served from a uniform spatial
grid (:class:`_SpatialGrid`) hashed by cell, so each query costs
O(neighbours) instead of O(N) over all registered interfaces.  The grid and
the per-node neighbour cache are invalidated through a *position epoch*: the
:class:`repro.netsim.network.Network` exposes a counter that is bumped every
time a node position changes (``set_position``, the mobility models, node
arrival/departure) and the medium rebuilds its index lazily whenever the
epoch it cached no longer matches.  :meth:`WirelessMedium.connectivity_matrix`
is built once per grid key and shared until the index is rebuilt, so the
investigation transports that ask for it on every query reuse one mapping
(and the reachability they derive from it) while nothing moves.  When no
epoch oracle is bound (bare position callables, as used by some unit tests)
or the propagation model has no finite radio range, the medium transparently
falls back to the brute-force scan and builds a fresh matrix per call, so
correctness never depends on the index.

Delivery
--------
:meth:`WirelessMedium.transmit` resolves the receivers of a frame first:
the cached grid lookup for a broadcast (recomputed once per position
epoch), a brute-force scan over every interface when no epoch oracle is
bound, or the unicast destination.  Without a collision model or jitter,
loss is then drawn in receiver order and one scheduled event delivers the
frame to every survivor, in that order.  Per-receiver events scheduled back
to back inside one ``transmit`` call would pop consecutively off the
``(time, sequence)`` queue anyway, so the single event replays exactly
their callback order; the events it saves are tallied in
``batched_deliveries_saved`` so the reported event count keeps meaning one
event per delivery.  With a collision model or jitter, loss, the
collision window and the jitter draw are interleaved per receiver, each
survivor getting its own event.

Either way a delivery is one call, ``interface.receive(frame, now)``, and
on a :class:`repro.netsim.network.NetworkInterface` that is up and bound
``receive`` *is* the node's handler (``OlsrNode.handle_control``), so the
frame enters the node without an intermediate call.  A frame reaches
:meth:`WirelessMedium.transmit` in one call from the interface too.  The
medium counts a frame delivered to a registered interface even when that
interface is down and drops it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.netsim.packet import BROADCAST_ADDRESS, Frame
from repro.netsim.stats import MediumStatistics

Position = Tuple[float, float]


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two 2-D positions."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


# --------------------------------------------------------------------------
# Propagation models
# --------------------------------------------------------------------------
class PropagationModel(Protocol):
    """Decides whether a transmission from ``sender`` reaches ``receiver``."""

    def in_range(self, sender: Position, receiver: Position) -> bool:
        """Return True when a frame sent at ``sender`` can reach ``receiver``."""
        ...


@dataclass
class UnitDiskPropagation:
    """Classic unit-disk model: reachable iff within ``radio_range`` metres."""

    radio_range: float = 250.0

    def in_range(self, sender: Position, receiver: Position) -> bool:
        return distance(sender, receiver) <= self.radio_range


@dataclass
class AsymmetricRangePropagation:
    """Unit-disk model with per-node transmit ranges.

    Used to create asymmetric links (A hears B but not vice versa), one of the
    situations that makes evidence ``E3`` hard to diagnose.
    """

    default_range: float = 250.0
    per_node_range: Dict[str, float] = field(default_factory=dict)

    def register(self, node_id: str, tx_range: float) -> None:
        """Assign ``tx_range`` to ``node_id``."""
        self.per_node_range[node_id] = tx_range

    def range_of(self, node_id: Optional[str]) -> float:
        """Transmit range of ``node_id`` (or the default when unknown)."""
        if node_id is None:
            return self.default_range
        return self.per_node_range.get(node_id, self.default_range)

    def max_range(self) -> float:
        """Largest transmit range any node can have under this model."""
        per_node = max(self.per_node_range.values(), default=0.0)
        return max(self.default_range, per_node)

    def in_range(self, sender: Position, receiver: Position) -> bool:
        # Without a node id the model degrades to the default range;
        # WirelessMedium uses in_range_for when sender identity is known.
        return distance(sender, receiver) <= self.default_range

    def in_range_for(self, sender_id: str, sender: Position, receiver: Position) -> bool:
        """Range check using ``sender_id``'s own transmit range."""
        return distance(sender, receiver) <= self.range_of(sender_id)


# --------------------------------------------------------------------------
# Loss models
# --------------------------------------------------------------------------
class LossModel(Protocol):
    """Per-receiver frame-loss decision."""

    def is_lost(self, frame: Frame, sender: Position, receiver: Position) -> bool:
        """Return True when the frame is lost on the sender→receiver link."""
        ...


@dataclass
class PerfectChannel:
    """Never loses frames."""

    def is_lost(self, frame: Frame, sender: Position, receiver: Position) -> bool:
        return False


@dataclass
class BernoulliLossModel:
    """Drop each frame independently with probability ``loss_probability``.

    The default ``rng`` is seeded so that two runs built without an explicit
    generator draw the same loss sequence; pass your own ``random.Random``
    to decorrelate several models.
    """

    loss_probability: float = 0.0
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be within [0, 1]")

    def is_lost(self, frame: Frame, sender: Position, receiver: Position) -> bool:
        if self.loss_probability <= 0.0:
            return False
        return self.rng.random() < self.loss_probability


@dataclass
class DistanceLossModel:
    """Loss probability grows with distance relative to ``radio_range``.

    ``p_loss = min(max_loss, (d / radio_range) ** exponent * max_loss)``.
    Within a fraction ``reliable_fraction`` of the range, delivery is perfect.
    The default ``rng`` is seeded for run-to-run determinism.
    """

    radio_range: float = 250.0
    max_loss: float = 0.8
    exponent: float = 2.0
    reliable_fraction: float = 0.5
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def loss_probability(self, d: float) -> float:
        """Loss probability at distance ``d``."""
        if d <= self.radio_range * self.reliable_fraction:
            return 0.0
        ratio = min(d / self.radio_range, 1.0)
        return min(self.max_loss, (ratio ** self.exponent) * self.max_loss)

    def is_lost(self, frame: Frame, sender: Position, receiver: Position) -> bool:
        return self.rng.random() < self.loss_probability(distance(sender, receiver))


@dataclass
class CompositeLossModel:
    """A frame is lost when *any* of the sub-models loses it."""

    models: List[LossModel] = field(default_factory=list)

    def is_lost(self, frame: Frame, sender: Position, receiver: Position) -> bool:
        return any(m.is_lost(frame, sender, receiver) for m in self.models)


# --------------------------------------------------------------------------
# Collision model
# --------------------------------------------------------------------------
@dataclass
class CollisionModel:
    """Simple busy-window collision model.

    Two frames collide at a receiver when their on-air intervals overlap.  The
    on-air duration of a frame is ``size_bytes * 8 / bitrate``.  Both
    overlapping frames are dropped at that receiver (no capture effect): the
    later arrival is never scheduled and the earlier frame's pending delivery
    is cancelled.
    """

    bitrate_bps: float = 2_000_000.0

    def airtime(self, frame: Frame) -> float:
        """On-air duration of ``frame`` in seconds."""
        return frame.size_bytes * 8.0 / self.bitrate_bps

    def overlaps(
        self, start_a: float, end_a: float, start_b: float, end_b: float
    ) -> bool:
        """Whether two on-air intervals overlap."""
        return start_a < end_b and start_b < end_a


class _BusyEntry:
    """One on-air interval at a receiver, plus its pending delivery event."""

    __slots__ = ("start", "end", "frame_id", "handle", "delivered")

    def __init__(self, start: float, end: float, frame_id: int) -> None:
        self.start = start
        self.end = end
        self.frame_id = frame_id
        self.handle = None  # EventHandle of the scheduled delivery (if any)
        self.delivered = False


# --------------------------------------------------------------------------
# Spatial index
# --------------------------------------------------------------------------
class _SpatialGrid:
    """Uniform grid over node positions, hashed by integer cell coordinates.

    ``cell_size`` is the maximum radio range of the propagation model, so any
    receiver a sender can reach lies within one cell ring of the sender's
    cell; :meth:`candidates_near` therefore returns a conservative superset
    of the true neighbourhood in O(neighbours).
    """

    __slots__ = ("cell_size", "positions", "cells")

    def __init__(self, cell_size: float, positions: Dict[str, Position]) -> None:
        self.cell_size = cell_size
        self.positions = positions
        self.cells: Dict[Tuple[int, int], List[str]] = {}
        for node_id, (x, y) in positions.items():
            key = (math.floor(x / cell_size), math.floor(y / cell_size))
            self.cells.setdefault(key, []).append(node_id)

    def candidates_near(self, origin: Position, radius: float) -> List[str]:
        """All node ids whose cell may contain points within ``radius`` of ``origin``."""
        cx = math.floor(origin[0] / self.cell_size)
        cy = math.floor(origin[1] / self.cell_size)
        reach = max(1, math.ceil(radius / self.cell_size))
        out: List[str] = []
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                bucket = self.cells.get((cx + dx, cy + dy))
                if bucket:
                    out.extend(bucket)
        return out


# --------------------------------------------------------------------------
# The medium itself
# --------------------------------------------------------------------------
class WirelessMedium:
    """Single-channel broadcast medium connecting every registered interface.

    The medium needs a position oracle (callable ``node_id -> (x, y)``) which
    the :class:`repro.netsim.network.Network` provides, so mobility models can
    move nodes without the medium keeping stale coordinates.  When the network
    additionally provides an *epoch oracle* (callable returning an int bumped
    on every position change), neighbourhood queries and broadcast candidate
    selection run through a cached spatial grid instead of scanning all N
    interfaces; set ``use_spatial_index=False`` to force the brute-force scan
    (used by the scaling benchmarks as the comparison baseline).
    """

    def __init__(
        self,
        simulator,
        propagation: Optional[PropagationModel] = None,
        loss_model: Optional[LossModel] = None,
        collision_model: Optional[CollisionModel] = None,
        propagation_delay: float = 1e-4,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
        use_spatial_index: bool = True,
    ) -> None:
        self._simulator = simulator
        self.propagation = propagation or UnitDiskPropagation()
        self.loss_model = loss_model or PerfectChannel()
        self.collision_model = collision_model
        self.propagation_delay = propagation_delay
        self.jitter = jitter
        self._rng = rng or random.Random(0)
        #: Per-medium frame-id pool: two networks in one process (the
        #: differential validator runs oracle and netsim side by side) must
        #: not interleave their id streams.
        self._frame_ids = itertools.count(1)
        #: Per-receiver delivery events elided by batching (one event serves
        #: every receiver of a frame).  Reporting code adds this to
        #: ``Simulator.processed_events`` so the "events" metric counts one
        #: event per delivery.
        self.batched_deliveries_saved = 0
        self._interfaces: Dict[str, object] = {}
        self._position_of = None  # set by Network
        self._position_epoch_of: Optional[Callable[[], int]] = None
        self.use_spatial_index = use_spatial_index
        self._membership_epoch = 0  # bumped on register/unregister
        self._grid: Optional[_SpatialGrid] = None
        self._grid_key: Optional[Tuple[object, ...]] = None
        self._order: Dict[str, int] = {}
        self._neighbor_cache: Dict[str, List[str]] = {}
        # The shared connectivity matrix of the current grid key (None until
        # first asked for); same epoch discipline as the neighbour cache.
        self._connectivity: Optional[Dict[str, List[str]]] = None
        # sender id -> (receivers, positions, distances, out_of_range count);
        # follows the same epoch discipline as the neighbour cache.
        self._broadcast_cache: Dict[str, Tuple[List[str], List[Position],
                                               Optional[List[float]], int]] = {}
        self.stats = MediumStatistics()
        # receiver id -> list of busy entries (for collisions)
        self._busy: Dict[str, List[_BusyEntry]] = {}
        #: Optional delivery-trace recorder (``repro.netsim.trace.TraceRecorder``
        #: or anything with its ``record`` signature).  ``None`` (the default)
        #: costs nothing; the validation harness installs one to audit every
        #: delivery with the positions the range check actually used.
        self.trace_recorder = None

    # ------------------------------------------------------------- wiring
    def bind_position_oracle(self, oracle, epoch_oracle: Optional[Callable[[], int]] = None) -> None:
        """Install the callable used to resolve current node positions.

        ``epoch_oracle``, when provided, must return a counter that changes
        whenever any position changes; it gates the spatial-index cache.
        Without it the medium always falls back to the brute-force scan.
        """
        self._position_of = oracle
        self._position_epoch_of = epoch_oracle
        self._grid = None
        self._grid_key = None
        self._neighbor_cache = {}
        self._connectivity = None
        self._broadcast_cache = {}

    def register(self, node_id: str, interface) -> None:
        """Register a receiving interface (must expose ``receive(frame, now)``)."""
        if node_id in self._interfaces:
            raise ValueError(f"interface {node_id!r} already registered")
        self._interfaces[node_id] = interface
        self._membership_epoch += 1

    def unregister(self, node_id: str) -> None:
        """Remove an interface (node failure / departure)."""
        if self._interfaces.pop(node_id, None) is not None:
            self._membership_epoch += 1

    @property
    def node_ids(self) -> List[str]:
        """Identifiers of all registered interfaces."""
        return list(self._interfaces)

    # ----------------------------------------------------------- fast path
    def _max_propagation_range(self) -> Optional[float]:
        """Largest sender range under the propagation model, or None if unknown."""
        prop = self.propagation
        if isinstance(prop, AsymmetricRangePropagation):
            candidate = prop.max_range()
        else:
            candidate = getattr(prop, "radio_range", None)
        if isinstance(candidate, (int, float)) and math.isfinite(candidate) and candidate > 0:
            return float(candidate)
        return None

    def _range_of_sender(self, sender_id: str) -> float:
        prop = self.propagation
        if isinstance(prop, AsymmetricRangePropagation):
            return prop.range_of(sender_id)
        return float(getattr(prop, "radio_range"))

    def _current_grid(self) -> Optional[_SpatialGrid]:
        """The up-to-date spatial grid, or None when the fast path is off."""
        if not self.use_spatial_index or self._position_epoch_of is None or self._position_of is None:
            return None
        cell_size = self._max_propagation_range()
        if cell_size is None:
            return None
        # Per-node range edits (AsymmetricRangePropagation.register) change
        # query answers without moving anyone, so they must be part of the key.
        prop = self.propagation
        if isinstance(prop, AsymmetricRangePropagation):
            range_fingerprint: object = tuple(sorted(prop.per_node_range.items()))
        else:
            range_fingerprint = None
        key = (self._position_epoch_of(), self._membership_epoch, cell_size,
               range_fingerprint)
        if self._grid is None or self._grid_key != key:
            position_of = self._position_of
            positions = {nid: position_of(nid) for nid in self._interfaces}
            self._grid = _SpatialGrid(cell_size, positions)
            self._grid_key = key
            self._order = {nid: index for index, nid in enumerate(self._interfaces)}
            self._neighbor_cache = {}
            self._connectivity = None
            self._broadcast_cache = {}
        return self._grid

    # ------------------------------------------------------------ querying
    def neighbors_of(self, node_id: str) -> List[str]:
        """Node ids currently within radio range of ``node_id``."""
        if self._position_of is None:
            raise RuntimeError("medium has no position oracle bound")
        grid = self._current_grid()
        if grid is None:
            return self._neighbors_brute_force(node_id)
        cached = self._neighbor_cache.get(node_id)
        if cached is not None:
            return list(cached)
        origin = grid.positions.get(node_id)
        if origin is None:
            origin = self._position_of(node_id)
        candidates = grid.candidates_near(origin, self._range_of_sender(node_id))
        candidates.sort(key=self._order.__getitem__)
        result = [
            other
            for other in candidates
            if other != node_id and self._reaches(node_id, origin, grid.positions[other])
        ]
        self._neighbor_cache[node_id] = result
        return list(result)

    def _neighbors_brute_force(self, node_id: str) -> List[str]:
        origin = self._position_of(node_id)
        result = []
        for other in self._interfaces:
            if other == node_id:
                continue
            if self._reaches(node_id, origin, self._position_of(other)):
                result.append(other)
        return result

    def connectivity_matrix(self) -> Dict[str, List[str]]:
        """Mapping node id -> reachable neighbour ids (directed); read-only.

        On the spatial fast path every call until the next index rebuild (a
        position change, node arrival or departure, a per-node range edit)
        returns the same shared mapping, built on first use; callers must
        not mutate it.  A new object therefore means new connectivity.  The
        brute-force fallback builds a fresh mapping on every call.
        """
        if self._current_grid() is None:
            return {nid: self.neighbors_of(nid) for nid in self._interfaces}
        if self._connectivity is None:
            self._connectivity = {nid: self.neighbors_of(nid) for nid in self._interfaces}
        return self._connectivity

    def _reaches(self, sender_id: str, sender_pos: Position, receiver_pos: Position) -> bool:
        prop = self.propagation
        if isinstance(prop, AsymmetricRangePropagation):
            return prop.in_range_for(sender_id, sender_pos, receiver_pos)
        return prop.in_range(sender_pos, receiver_pos)

    # ---------------------------------------------------------- transmission
    def transmit(self, frame: Frame) -> None:
        """Transmit ``frame`` from its source (see "Delivery" in the module doc)."""
        if self._position_of is None:
            raise RuntimeError("medium has no position oracle bound")
        source = frame.source
        if source not in self._interfaces:
            raise ValueError(f"unknown transmitter {source!r}")
        now = self._simulator.now
        frame.created_at = now
        if frame._frame_id is None:
            frame._frame_id = next(self._frame_ids)
        sender_pos = self._position_of(source)
        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += frame.size_bytes

        if frame.destination == BROADCAST_ADDRESS:
            grid = self._current_grid()
            if grid is not None:
                resolved = self._broadcast_cache.get(source)
                if resolved is None:
                    resolved = self._resolve_broadcast(source, sender_pos, grid)
                    self._broadcast_cache[source] = resolved
            else:
                others = [nid for nid in self._interfaces if nid != source]
                resolved = self._resolve(source, sender_pos, others, self._position_of)
        elif frame.destination in self._interfaces:
            resolved = self._resolve(source, sender_pos, [frame.destination],
                                     self._position_of)
        else:
            stats.frames_unroutable += 1
            return
        receivers, receiver_positions, distances, out_of_range = resolved
        stats.frames_out_of_range += out_of_range
        if not receivers:
            return
        if self.collision_model is None and not self.jitter:
            self._post_batch(frame, sender_pos, receivers, receiver_positions, distances)
        else:
            self._schedule_each(frame, sender_pos, receivers, receiver_positions, now)

    def _resolve(
        self, source: str, sender_pos: Position, candidates: List[str],
        position_of: Callable[[str], Position],
    ) -> Tuple[List[str], List[Position], Optional[List[float]], int]:
        """The ``candidates`` in range of ``source``, in candidate order.

        Returns ``(receivers, positions, distances, out_of_range)`` where
        ``distances`` is only materialised when the loss model needs it.
        """
        receivers: List[str] = []
        receiver_positions: List[Position] = []
        for nid in candidates:
            receiver_pos = position_of(nid)
            if self._reaches(source, sender_pos, receiver_pos):
                receivers.append(nid)
                receiver_positions.append(receiver_pos)
        distances: Optional[List[float]] = None
        if type(self.loss_model) is DistanceLossModel:
            distances = [distance(sender_pos, rp) for rp in receiver_positions]
        return (receivers, receiver_positions, distances,
                len(candidates) - len(receivers))

    def _resolve_broadcast(
        self, source: str, sender_pos: Position, grid: _SpatialGrid
    ) -> Tuple[List[str], List[Position], Optional[List[float]], int]:
        """:meth:`_resolve` over the grid's candidates, in registration order.

        Anything outside the candidate cells is provably out of range, so
        it counts as out of range without a check.
        """
        candidates = grid.candidates_near(sender_pos, self._range_of_sender(source))
        candidates.sort(key=self._order.__getitem__)
        candidates = [nid for nid in candidates if nid != source]
        receivers, receiver_positions, distances, _ = self._resolve(
            source, sender_pos, candidates, grid.positions.__getitem__)
        out_of_range = len(self._interfaces) - 1 - len(receivers)
        return receivers, receiver_positions, distances, out_of_range

    def _post_batch(
        self, frame: Frame, sender_pos: Position, receivers: List[str],
        receiver_positions: List[Position], distances: Optional[List[float]],
    ) -> None:
        """Draw losses in receiver order; one event delivers to the rest."""
        loss = self.loss_model
        loss_type = type(loss)
        keep: Optional[List[int]] = None
        if loss_type is PerfectChannel:
            pass
        elif loss_type is BernoulliLossModel:
            probability = loss.loss_probability
            if probability > 0.0:
                rng_random = loss.rng.random
                keep = [i for i in range(len(receivers))
                        if not rng_random() < probability]
        elif loss_type is DistanceLossModel:
            if distances is None:  # loss model swapped after the cache filled
                distances = [distance(sender_pos, rp) for rp in receiver_positions]
            probability_at = loss.loss_probability
            rng_random = loss.rng.random
            keep = [i for i, d in enumerate(distances)
                    if not rng_random() < probability_at(d)]
        else:
            keep = [i for i, receiver_pos in enumerate(receiver_positions)
                    if not loss.is_lost(frame, sender_pos, receiver_pos)]
        if keep is not None:
            self.stats.frames_lost += len(receivers) - len(keep)
            if len(keep) != len(receivers):
                receivers = [receivers[i] for i in keep]
                receiver_positions = [receiver_positions[i] for i in keep]
            if not receivers:
                return
        tx_infos = None
        if self.trace_recorder is not None:
            # Capture the positions (and the sender range) the in-range
            # decision was made with — mobility may move either endpoint
            # before the delivery event fires.
            tx_range = self._safe_range_of(frame.source)
            tx_infos = [(sender_pos, receiver_pos, tx_range)
                        for receiver_pos in receiver_positions]
        self.batched_deliveries_saved += len(receivers) - 1
        self._simulator.post(self.propagation_delay, self._deliver_batch,
                             receivers, frame, tx_infos)

    def _schedule_each(
        self, frame: Frame, sender_pos: Position, receivers: List[str],
        receiver_positions: List[Position], now: float,
    ) -> None:
        """Loss, collision window and jitter per receiver, one event each."""
        loss = self.loss_model
        stats = self.stats
        tx_range = None
        if self.trace_recorder is not None:
            tx_range = self._safe_range_of(frame.source)
        for receiver_id, receiver_pos in zip(receivers, receiver_positions):
            if loss.is_lost(frame, sender_pos, receiver_pos):
                stats.frames_lost += 1
                continue
            entry: Optional[_BusyEntry] = None
            if self.collision_model is not None:
                entry, collided = self._check_collision(receiver_id, frame, now)
                if collided:
                    stats.frames_collided += 1
                    continue
            delay = self.propagation_delay
            if self.jitter:
                delay += self._rng.uniform(0.0, self.jitter)
            tx_info = None
            if self.trace_recorder is not None:
                tx_info = (sender_pos, receiver_pos, tx_range)
            if entry is not None:
                entry.handle = self._simulator.schedule(
                    delay, self._deliver, receiver_id, frame, entry, tx_info)
            else:
                # No collision entry to cancel later: skip handle creation.
                self._simulator.post(delay, self._deliver, receiver_id,
                                     frame, None, tx_info)

    def _deliver_batch(self, receiver_ids: List[str], frame: Frame,
                       tx_infos: Optional[List[Tuple[Position, Position, Optional[float]]]]) -> None:
        """Deliver one frame to all surviving receivers, in order.

        Receivers that unregistered while the frame was on the air count as
        unroutable, as a per-receiver delivery event would count them.
        """
        interfaces = self._interfaces
        stats = self.stats
        now = self._simulator.now
        size_bytes = frame.size_bytes
        for index, receiver_id in enumerate(receiver_ids):
            interface = interfaces.get(receiver_id)
            if interface is None:
                stats.frames_unroutable += 1
                continue
            stats.frames_delivered += 1
            stats.bytes_delivered += size_bytes
            if self.trace_recorder is not None and tx_infos is not None:
                sender_pos, receiver_pos, tx_range = tx_infos[index]
                self.trace_recorder.record(
                    now, "medium", receiver_id, "FRAME_DELIVERED",
                    source=frame.source,
                    sender_pos=sender_pos,
                    receiver_pos=receiver_pos,
                    tx_range=tx_range,
                )
            interface.receive(frame, now)

    def _check_collision(
        self, receiver_id: str, frame: Frame, now: float
    ) -> Tuple[_BusyEntry, bool]:
        """Record ``frame``'s on-air interval; detect and resolve overlaps.

        Both frames of an overlapping pair are dropped: the new frame is
        reported as collided to the caller, and any earlier frame still
        awaiting delivery has its delivery event cancelled here.
        """
        model = self.collision_model
        assert model is not None
        airtime = model.airtime(frame)
        entry = _BusyEntry(now, now + airtime, frame.frame_id)
        intervals = self._busy.setdefault(receiver_id, [])
        # prune stale intervals
        intervals[:] = [iv for iv in intervals if iv.end > now - 1.0]
        collided = False
        for other in intervals:
            if not model.overlaps(entry.start, entry.end, other.start, other.end):
                continue
            collided = True
            if (
                other.handle is not None
                and not other.delivered
                and not other.handle.cancelled
            ):
                other.handle.cancel()
                other.handle = None
                self.stats.frames_collided += 1
        intervals.append(entry)
        return entry, collided

    def _safe_range_of(self, sender_id: str) -> Optional[float]:
        """``_range_of_sender`` for models that may have no finite range."""
        prop = self.propagation
        if isinstance(prop, AsymmetricRangePropagation):
            return prop.range_of(sender_id)
        candidate = getattr(prop, "radio_range", None)
        if isinstance(candidate, (int, float)) and math.isfinite(candidate):
            return float(candidate)
        return None

    def _deliver(self, receiver_id: str, frame: Frame, entry: Optional[_BusyEntry] = None,
                 tx_info: Optional[Tuple[Position, Position, Optional[float]]] = None) -> None:
        if entry is not None:
            entry.delivered = True
        interface = self._interfaces.get(receiver_id)
        if interface is None:
            self.stats.frames_unroutable += 1
            return
        self.stats.frames_delivered += 1
        self.stats.bytes_delivered += frame.size_bytes
        if self.trace_recorder is not None and tx_info is not None:
            sender_pos, receiver_pos, tx_range = tx_info
            self.trace_recorder.record(
                self._simulator.now, "medium", receiver_id, "FRAME_DELIVERED",
                source=frame.source,
                sender_pos=sender_pos,
                receiver_pos=receiver_pos,
                tx_range=tx_range,
            )
        interface.receive(frame, self._simulator.now)
