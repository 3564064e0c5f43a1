"""Discrete-event MANET simulator.

This package provides the network substrate on which the OLSR protocol and
the intrusion-detection experiments run:

* :mod:`repro.netsim.engine` — a deterministic discrete-event engine.
* :mod:`repro.netsim.packet` — the link-layer frame model.
* :mod:`repro.netsim.medium` — wireless broadcast medium: unit-disk
  propagation and the perfect, Bernoulli and distance loss models, served
  by a spatial neighbour index (uniform grid, position-epoch invalidation)
  so neighbourhood queries and broadcast resolution cost O(neighbours),
  not O(N).  It delivers broadcasts only: there is no unicast path, and
  nodes neither leave nor fail.
* :mod:`repro.netsim.mobility` — node placement and mobility models.
* :mod:`repro.netsim.network` — container wiring nodes, medium and engine.
* :mod:`repro.netsim.stats` — transmission statistics.
* :mod:`repro.netsim.trace` — event trace recording.

The paper evaluates its trust system on a small ad hoc network; the authors
do not publish their simulation substrate.  This module is the substitution
documented in DESIGN.md: a unit-disk radio with Bernoulli or
distance-dependent loss reproduces the properties the detection system
depends on (broadcast neighbourhoods, lost answers, links that fail one
way under loss).

Batched delivery
----------------
At 1,024-node scale the dominant cost is per-event Python overhead, so a
transmission is resolved once for all of its receivers:

1. **Receiver resolution** — a broadcast asks the spatial grid for the
   3×3 cells around the sender (a superset of reachable receivers in
   O(neighbours)) and range-checks them once per position epoch; the
   result, with each receiver's interface and (under distance loss) loss
   probability, is cached per sender until a node moves or arrives.
2. **Loss draws** — consumed in receiver order, one per receiver.
3. **Single delivery event** — one simulator event fans the frame out to
   the surviving receivers with one ``receive`` call each; the
   per-receiver events it replaces are tallied in
   ``WirelessMedium.batched_deliveries_saved`` so reported event counts
   mean one event per delivery.

``tests/test_netsim_batch_parity.py`` pins this, trace for trace, against
a per-receiver medium kept in ``tests/reference/``, and
``tests/test_netsim_calls_per_frame.py`` bounds the Python calls per
delivered frame of a 128-node cell.

Downstream, the OLSR node amortises its RFC recomputations the same way:
MPR selection and the routing table are version-gated on the link-state
repositories and refreshed per detection cycle (or lazily on read), not
per received message.

Scheduler core
--------------
Under the medium sits one heap of ``(time, sequence, callback, args,
handle)`` tuples (:class:`~repro.netsim.engine.Simulator`): the leading
time and unique sequence number settle every comparison in C, so events
run in ``(time, sequence)`` FIFO order, pinned trace-identical to the
object-heap engine kept in ``tests/reference/`` by
``tests/test_netsim_engine_parity.py``.  Only ``schedule``,
``schedule_at`` and ``schedule_periodic`` events carry a handle (a cancel
flag); cancelled entries are skipped when they reach the head of the heap.
The engine's ``counters()`` (pushes, pops, cancelled skips) surface
through ``Network.engine_counters()`` into experiment run stats.
Mobility ticks ride the same event spine: one periodic engine event
advances the whole population (see :mod:`repro.netsim.mobility`).
"""

from repro.netsim.engine import EventHandle, Simulator
from repro.netsim.medium import (
    BernoulliLossModel,
    DistanceLossModel,
    PerfectChannel,
    PropagationModel,
    UnitDiskPropagation,
    WirelessMedium,
)
from repro.netsim.mobility import (
    GridPlacement,
    MobilityModel,
    RandomWalkMobility,
    RandomWaypointMobility,
    StaticPlacement,
    UniformRandomPlacement,
)
from repro.netsim.network import Network, NetworkInterface, PositionTable
from repro.netsim.packet import Frame
from repro.netsim.stats import MediumStatistics
from repro.netsim.trace import TraceEvent, TraceRecorder

__all__ = [
    "BernoulliLossModel",
    "DistanceLossModel",
    "EventHandle",
    "Frame",
    "GridPlacement",
    "MediumStatistics",
    "MobilityModel",
    "Network",
    "NetworkInterface",
    "PerfectChannel",
    "PositionTable",
    "PropagationModel",
    "RandomWalkMobility",
    "RandomWaypointMobility",
    "Simulator",
    "StaticPlacement",
    "TraceEvent",
    "TraceRecorder",
    "UniformRandomPlacement",
    "UnitDiskPropagation",
    "WirelessMedium",
]
