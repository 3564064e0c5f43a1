"""Wireless medium: unit-disk propagation, loss models and batched delivery.

The medium implements an idealised single-channel broadcast radio:

* A propagation model decides *who can hear whom*: a receiver hears a
  sender within its ``radio_range`` (:class:`UnitDiskPropagation`).
* A loss model decides, per receiver, whether an otherwise reachable frame
  is actually delivered (captures fading, noise, obstacles — the
  unreliability the paper points at when discussing evidence ``E3``):
  :class:`PerfectChannel`, :class:`BernoulliLossModel` or
  :class:`DistanceLossModel`, the three the scenarios build.

Spatial index
-------------
Neighbourhoods come from a uniform grid (:class:`_SpatialGrid`) whose cells
are one radio range wide, so each query costs O(neighbours), not O(N).
Positions are read from the network's
:class:`~repro.netsim.network.PositionTable` (bound with
:meth:`WirelessMedium.bind_positions`), whose ``epoch`` counter is bumped
on every write.  The caches — each node's neighbour list, the connectivity
matrix (one shared mapping, so the investigation transports that ask for
it on every query reuse it) and each sender's broadcast resolution — are
rebuilt lazily once that epoch moves, an interface registers, or the
propagation or loss model is replaced (replace a model; do not edit one in
place).

Delivery
--------
The medium delivers broadcasts only; it has no unicast path, and an
interface, once registered, never leaves.  A broadcast's resolution holds
its in-range receivers in registration order, each with its interface, the
count of interfaces out of range and, under distance loss, each receiver's
loss probability.  On a cached broadcast :meth:`WirelessMedium.transmit`
compares the epoch, reads the resolution, draws the losses in receiver
order (``rng.random() < p``, as ``is_lost`` draws) and posts one engine
event that delivers the frame to every survivor, in order.  Per-receiver
events posted back to back would pop consecutively off the ``(time,
sequence)`` queue anyway, so the single event replays exactly their
callback order; the events it saves are tallied in
``batched_deliveries_saved`` so the reported event count keeps meaning one
event per delivery.

A delivery is one call, ``interface.receive(frame, now)``; on a bound
:class:`repro.netsim.network.NetworkInterface`, ``receive`` *is* the
node's handler.  An arrival while a frame is in the air takes no receiver
away from it, so the event delivers to the interfaces resolved at send
time.  Nothing is ever unroutable, and ``frames_unroutable`` stays 0.
``tests/test_netsim_batch_parity.py`` pins all of this to the per-receiver
medium kept in ``tests/reference/``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from repro.netsim.packet import Frame
from repro.netsim.stats import MediumStatistics

Position = Tuple[float, float]

#: Seconds between a transmission and its delivery to every receiver.
PROPAGATION_DELAY = 1e-4


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two 2-D positions."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


# ------------------------------------------------------------- propagation
class PropagationModel(Protocol):
    """Decides whether a transmission from ``sender`` reaches ``receiver``.

    ``in_range`` must be false beyond ``radio_range`` metres: the spatial
    grid only looks that far.
    """

    radio_range: float

    def in_range(self, sender: Position, receiver: Position) -> bool:
        """Return True when a frame sent at ``sender`` can reach ``receiver``."""
        ...


@dataclass
class UnitDiskPropagation:
    """Classic unit-disk model: reachable iff within ``radio_range`` metres."""

    radio_range: float = 250.0

    def in_range(self, sender: Position, receiver: Position) -> bool:
        return distance(sender, receiver) <= self.radio_range


# ------------------------------------------------------------- loss models
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
    """Loss probability grows with the square of the distance relative to
    ``radio_range``.

    ``p_loss = min(max_loss, (d / radio_range) ** 2 * max_loss)``.  Within
    half the range, delivery is perfect.  The default ``rng`` is seeded for
    run-to-run determinism.
    """

    radio_range: float = 250.0
    max_loss: float = 0.8
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def loss_probability(self, d: float) -> float:
        """Loss probability at distance ``d``."""
        if d <= self.radio_range * 0.5:
            return 0.0
        ratio = min(d / self.radio_range, 1.0)
        return min(self.max_loss, (ratio ** 2.0) * self.max_loss)

    def is_lost(self, frame: Frame, sender: Position, receiver: Position) -> bool:
        return self.rng.random() < self.loss_probability(distance(sender, receiver))


_LOSS_MODELS = (PerfectChannel, BernoulliLossModel, DistanceLossModel)


# ----------------------------------------------------------- spatial index
class _SpatialGrid:
    """Uniform grid over node positions, hashed by integer cell coordinates.

    ``cell_size`` is the radio range, so any receiver a sender can reach
    lies in the 3×3 cells around the sender's: :meth:`candidates_near`
    returns a superset of the neighbourhood in O(neighbours).
    """

    __slots__ = ("cell_size", "positions", "cells")

    def __init__(self, cell_size: float, positions: Dict[str, Position]) -> None:
        self.cell_size = cell_size
        self.positions = positions
        self.cells: Dict[Tuple[int, int], List[str]] = {}
        for node_id, (x, y) in positions.items():
            key = (math.floor(x / cell_size), math.floor(y / cell_size))
            self.cells.setdefault(key, []).append(node_id)

    def candidates_near(self, origin: Position) -> List[str]:
        """Node ids in the cells within one cell of ``origin``'s."""
        cx = math.floor(origin[0] / self.cell_size)
        cy = math.floor(origin[1] / self.cell_size)
        out: List[str] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = self.cells.get((cx + dx, cy + dy))
                if bucket:
                    out.extend(bucket)
        return out


class _Unbound:
    """The position table of a medium not bound to one yet."""

    epoch = -1

    def __getitem__(self, node_id: str) -> Position:
        raise RuntimeError("medium has no position table bound")


#: A receiver of a frame: its node id and its interface.
Receiver = Tuple[str, object]
#: A resolved transmission: receivers in range (registration order), their
#: loss probabilities under distance loss (else ``None``), and how many
#: interfaces were out of range.
Resolution = Tuple[List[Receiver], Optional[List[float]], int]


# ------------------------------------------------------- the medium itself
class WirelessMedium:
    """Single-channel broadcast medium connecting every registered interface.

    Positions come from the table bound by :meth:`bind_positions` (a
    :class:`repro.netsim.network.Network` binds its ``positions``); see the
    module docstring for the caches and delivery.
    """

    def __init__(
        self,
        simulator,
        propagation: Optional[PropagationModel] = None,
        loss_model: Optional[LossModel] = None,
    ) -> None:
        self._simulator = simulator
        #: Per-receiver delivery events elided by batching (one event serves
        #: every receiver of a frame).  Reporting code adds this to
        #: ``Simulator.processed_events`` so the "events" metric counts one
        #: event per delivery.
        self.batched_deliveries_saved = 0
        self.stats = MediumStatistics()
        #: Optional delivery-trace recorder (``repro.netsim.trace.TraceRecorder``
        #: or anything with its ``record`` signature).  ``None`` (the default)
        #: costs nothing; the validation harness installs one to audit every
        #: delivery with the positions the range check actually used.
        self.trace_recorder = None
        self._interfaces: Dict[str, object] = {}
        self._positions = _Unbound()
        #: Position epoch the caches were built at; ``None`` forces a rebuild.
        self._epoch: Optional[int] = None
        self._grid: Optional[_SpatialGrid] = None
        self._order: Dict[str, int] = {}
        self._neighbors: Dict[str, List[str]] = {}
        self._connectivity: Optional[Dict[str, List[str]]] = None
        self._broadcasts: Dict[str, Resolution] = {}
        self.propagation = propagation or UnitDiskPropagation()
        self.loss_model = loss_model or PerfectChannel()

    # ------------------------------------------------------------- wiring
    @property
    def propagation(self) -> PropagationModel:
        """The propagation model; it needs a finite positive ``radio_range``."""
        return self._propagation

    @propagation.setter
    def propagation(self, model: PropagationModel) -> None:
        radio_range = getattr(model, "radio_range", None)
        if not (isinstance(radio_range, (int, float)) and math.isfinite(radio_range)
                and radio_range > 0):
            raise ValueError(
                f"propagation model needs a finite positive radio_range, got {radio_range!r}")
        self._propagation = model
        self._epoch = None

    @property
    def loss_model(self) -> LossModel:
        """The loss model: a :class:`PerfectChannel`,
        :class:`BernoulliLossModel` or :class:`DistanceLossModel`."""
        return self._loss_model

    @loss_model.setter
    def loss_model(self, model: LossModel) -> None:
        if type(model) not in _LOSS_MODELS:
            raise TypeError(f"unsupported loss model {type(model).__name__}")
        self._loss_model = model
        self._bernoulli = model if type(model) is BernoulliLossModel else None
        self._epoch = None

    def bind_positions(self, positions) -> None:
        """Read node positions from ``positions``, a ``node id → (x, y)``
        mapping with an ``epoch`` counter bumped on every write (a
        :class:`~repro.netsim.network.PositionTable`)."""
        if not isinstance(getattr(positions, "epoch", None), int):
            raise TypeError("the medium needs a position table with an epoch "
                            "counter (repro.netsim.network.PositionTable)")
        self._positions = positions
        self._epoch = None

    def register(self, node_id: str, interface) -> None:
        """Register a receiving interface (must expose ``receive(frame, now)``)."""
        if node_id in self._interfaces:
            raise ValueError(f"interface {node_id!r} already registered")
        self._interfaces[node_id] = interface
        self._epoch = None

    @property
    def node_ids(self) -> List[str]:
        """Identifiers of all registered interfaces."""
        return list(self._interfaces)

    # --------------------------------------------------------- spatial index
    def _refresh(self) -> None:
        """Rebuild the grid and drop every cache built on the old one."""
        positions = self._positions
        snapshot = {nid: positions[nid] for nid in self._interfaces}
        self._grid = _SpatialGrid(float(self._propagation.radio_range), snapshot)
        self._order = {nid: index for index, nid in enumerate(self._interfaces)}
        self._neighbors = {}
        self._connectivity = None
        self._broadcasts = {}
        self._epoch = positions.epoch

    def _neighbors_of(self, node_id: str) -> List[str]:
        """The cached neighbour list of ``node_id``; callers must not mutate it."""
        cached = self._neighbors.get(node_id)
        if cached is None:
            positions = self._grid.positions
            origin = positions.get(node_id)
            if origin is None:
                origin = self._positions[node_id]
            candidates = self._grid.candidates_near(origin)
            candidates.sort(key=self._order.__getitem__)
            in_range = self._propagation.in_range
            cached = [other for other in candidates
                      if other != node_id and in_range(origin, positions[other])]
            self._neighbors[node_id] = cached
        return cached

    # ------------------------------------------------------------ querying
    def neighbors_of(self, node_id: str) -> List[str]:
        """Node ids currently within radio range of ``node_id``."""
        if self._positions.epoch != self._epoch:
            self._refresh()
        return list(self._neighbors_of(node_id))

    def connectivity_matrix(self) -> Dict[str, List[str]]:
        """Mapping node id -> reachable neighbour ids (directed); read-only.

        Every call until the next rebuild (a position change, an arrival, a
        replaced model) returns the same shared mapping, built
        on first use; callers must not mutate it.  A new object therefore
        means new connectivity.
        """
        if self._positions.epoch != self._epoch:
            self._refresh()
        if self._connectivity is None:
            self._connectivity = {nid: list(self._neighbors_of(nid))
                                  for nid in self._interfaces}
        return self._connectivity

    # ---------------------------------------------------------- transmission
    def transmit(self, frame: Frame) -> None:
        """Broadcast ``frame`` from its source (see "Delivery" in the module doc)."""
        source = frame.source
        if self._positions.epoch != self._epoch:
            self._refresh()
        resolution = self._broadcasts.get(source)
        if resolution is None:
            resolution = self._resolve_broadcast(source)
        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += frame.size_bytes
        receivers, probabilities, out_of_range = resolution
        stats.frames_out_of_range += out_of_range
        if not receivers:
            return
        survivors = receivers
        if probabilities is not None:
            draw = self._loss_model.rng.random
            survivors = [receiver for receiver, p in zip(receivers, probabilities)
                         if not draw() < p]
        elif self._bernoulli is not None:
            p = self._bernoulli.loss_probability
            if p > 0.0:
                draw = self._bernoulli.rng.random
                survivors = [receiver for receiver in receivers if not draw() < p]
        if survivors is not receivers:
            stats.frames_lost += len(receivers) - len(survivors)
            if not survivors:
                return
        self.batched_deliveries_saved += len(survivors) - 1
        if self.trace_recorder is None:
            self._simulator.post(PROPAGATION_DELAY, self._deliver_batch,
                                 frame, survivors)
            return
        # Capture the positions (and the range) the in-range decision was
        # made with: mobility may move either endpoint before delivery.
        positions = self._positions
        sender_pos = positions[source]
        tx_range = float(self._propagation.radio_range)
        tx_infos = [(sender_pos, positions[receiver_id], tx_range)
                    for receiver_id, _ in survivors]
        self._simulator.post(PROPAGATION_DELAY, self._deliver_traced,
                             frame, survivors, tx_infos)

    def _resolve_broadcast(self, source: str) -> Resolution:
        """Resolve and cache ``source``'s broadcast for this epoch."""
        if source not in self._interfaces:
            raise ValueError(f"unknown transmitter {source!r}")
        interfaces = self._interfaces
        neighbors = self._neighbors_of(source)
        resolution = ([(nid, interfaces[nid]) for nid in neighbors],
                      self._loss_probabilities(source, neighbors),
                      len(interfaces) - 1 - len(neighbors))
        self._broadcasts[source] = resolution
        return resolution

    def _loss_probabilities(self, source: str,
                            receivers: List[str]) -> Optional[List[float]]:
        """Each receiver's distance-loss probability (``None`` otherwise)."""
        loss = self._loss_model
        if type(loss) is not DistanceLossModel:
            return None
        positions = self._positions
        origin = positions[source]
        return [loss.loss_probability(distance(origin, positions[nid]))
                for nid in receivers]

    def _deliver_batch(self, frame: Frame, receivers: List[Receiver]) -> None:
        """Deliver one frame to all surviving receivers, in order."""
        now = self._simulator.now
        count = len(receivers)
        stats = self.stats
        stats.frames_delivered += count
        stats.bytes_delivered += count * frame.size_bytes
        for _, interface in receivers:
            interface.receive(frame, now)

    def _deliver_traced(
        self, frame: Frame, receivers: List[Receiver],
        tx_infos: List[Tuple[Position, Position, float]],
    ) -> None:
        """:meth:`_deliver_batch`, recording each delivery with the positions
        captured at send time while a trace recorder is installed."""
        stats = self.stats
        now = self._simulator.now
        size_bytes = frame.size_bytes
        for (receiver_id, interface), tx_info in zip(receivers, tx_infos):
            stats.frames_delivered += 1
            stats.bytes_delivered += size_bytes
            if self.trace_recorder is not None:
                sender_pos, receiver_pos, tx_range = tx_info
                self.trace_recorder.record(
                    now, "medium", receiver_id, "FRAME_DELIVERED",
                    source=frame.source,
                    sender_pos=sender_pos,
                    receiver_pos=receiver_pos,
                    tx_range=tx_range,
                )
            interface.receive(frame, now)
