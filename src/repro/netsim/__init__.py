"""Discrete-event MANET simulator.

This package provides the network substrate on which the OLSR protocol and
the intrusion-detection experiments run:

* :mod:`repro.netsim.engine` — a deterministic discrete-event engine.
* :mod:`repro.netsim.packet` — the link-layer frame model.
* :mod:`repro.netsim.medium` — wireless broadcast medium with configurable
  propagation, loss and collision models, served by a spatial neighbour
  index (uniform grid, position-epoch invalidation) so neighbourhood
  queries and broadcast candidate selection cost O(neighbours), not O(N).
* :mod:`repro.netsim.mobility` — node placement and mobility models.
* :mod:`repro.netsim.network` — container wiring nodes, medium and engine.
* :mod:`repro.netsim.stats` — transmission statistics.
* :mod:`repro.netsim.trace` — event trace recording.

The paper evaluates its trust system on a small ad hoc network; the authors
do not publish their simulation substrate.  This module is the substitution
documented in DESIGN.md: a unit-disk radio with Bernoulli loss and an
optional collision window reproduces the properties the detection system
depends on (broadcast neighbourhoods, lost answers, asymmetric links).

Batched delivery
----------------
At 1,024-node scale the dominant cost is per-event Python overhead, so a
transmission is resolved once for all of its receivers:

1. **Receiver resolution** — a broadcast asks the spatial grid for the
   cell ring around the sender (a conservative superset of reachable
   receivers in O(neighbours)) and range-checks it once per position
   epoch; the result is cached per sender until a node moves.
2. **Loss draws** — consumed in receiver order, one per receiver.
3. **Single delivery event** — one simulator event fans the frame out to
   the surviving receivers; the per-receiver events it replaces are
   tallied in ``WirelessMedium.batched_deliveries_saved`` so reported
   event counts mean one event per delivery.  Collision models and jitter
   keep one event per receiver.

``tests/test_netsim_batch_parity.py`` pins this, trace for trace, against
a per-receiver medium kept in ``tests/reference/``.

Downstream, the OLSR node amortises its RFC recomputations the same way:
MPR selection and the routing table are version-gated on the link-state
repositories and refreshed per detection cycle (or lazily on read), not
per received message.

Scheduler core
--------------
Under the medium sits a two-tier event scheduler
(:class:`~repro.netsim.engine.Simulator`): a timer wheel of per-slot
min-heaps absorbs the near-future events that dominate protocol traffic
(HELLO/TC jitter, delivery delays, retry timers land O(1) in their slot),
while an overflow heap holds everything beyond the wheel horizon and
migrates forward as the wheel turns.  Execution order is exactly the
``(time, sequence)`` FIFO of a single global heap, pinned trace-identical
to the heap engine kept in ``tests/reference/`` by
``tests/test_netsim_engine_parity.py``.  Event records are
``__slots__``-pooled, cancellations are skipped lazily and compacted when
the dead backlog grows, and the engine's ``counters()`` (pushes, pops,
cancelled skips, wheel hits, compactions) surface through
``Network.engine_counters()`` into experiment run stats.  Mobility ticks
ride the same event spine: one periodic engine event advances the whole
population (see :mod:`repro.netsim.mobility`).
"""

from repro.netsim.engine import Event, EventHandle, Simulator
from repro.netsim.medium import (
    AsymmetricRangePropagation,
    BernoulliLossModel,
    CollisionModel,
    CompositeLossModel,
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
from repro.netsim.packet import BROADCAST_ADDRESS, Frame
from repro.netsim.stats import MediumStatistics
from repro.netsim.trace import TraceEvent, TraceRecorder

__all__ = [
    "AsymmetricRangePropagation",
    "BROADCAST_ADDRESS",
    "BernoulliLossModel",
    "CollisionModel",
    "CompositeLossModel",
    "DistanceLossModel",
    "Event",
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
