"""Network container: wires the engine, the medium, mobility and the nodes.

A :class:`Network` owns the simulated clock, the node positions (so mobility
models can move nodes) and the set of attached interfaces.  Protocol nodes
(:class:`repro.olsr.node.OlsrNode`) attach through the small
:class:`NetworkInterface` adapter, which is the only thing the medium sees.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.engine import Simulator
from repro.netsim.medium import WirelessMedium, UnitDiskPropagation, PerfectChannel
from repro.netsim.mobility import MobilityModel, GridPlacement
from repro.netsim.packet import Frame

Position = Tuple[float, float]


class PositionTable(Dict[str, Position]):
    """Node-position mapping that counts its mutations.

    The wireless medium caches a spatial index over node positions; every
    write to this table (node arrival, the periodic mobility-model updates,
    a direct teleport) bumps ``epoch``, an attribute the medium compares on
    each query to invalidate that cache lazily.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.epoch = 0

    def __setitem__(self, key: str, value: Position) -> None:
        super().__setitem__(key, value)
        self.epoch += 1

    def __delitem__(self, key: str) -> None:
        super().__delitem__(key)
        self.epoch += 1

    def pop(self, key, *default):
        self.epoch += 1
        return super().pop(key, *default)

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        self.epoch += 1

    def clear(self) -> None:
        super().clear()
        self.epoch += 1

    def setdefault(self, key, default=None):
        if key not in self:
            self.epoch += 1
        return super().setdefault(key, default)


class NetworkInterface:
    """Adapter between a protocol node and the wireless medium.

    A frame crosses the interface in one call each way.  The medium delivers
    through ``receive(frame, now)``; :meth:`bind` installs the handler *as*
    ``receive``, so a delivery calls the handler directly.  Before anything
    is bound, ``receive`` is the class's no-op.  :meth:`broadcast` builds the
    frame and hands it straight to the medium's ``transmit``.  Interfaces
    never go down or leave the network.
    """

    def __init__(self, node_id: str, network: "Network") -> None:
        self.node_id = node_id
        self._network = network

    def bind(self, handler: Callable[[Frame, float], None]) -> None:
        """Install the upper-layer receive handler as ``receive``."""
        self.receive = handler

    def receive(self, frame: Frame, now: float) -> None:
        """Drop ``frame``: nothing is bound yet.

        Once a handler is bound, it shadows this method (see the class
        docstring).
        """

    def broadcast(self, payload, size_bytes: int = 64, **metadata) -> Frame:
        """Broadcast ``payload`` to every node in range; returns the frame."""
        frame = Frame(self.node_id, payload, size_bytes, metadata=metadata)
        self._network.medium.transmit(frame)
        return frame


class Network:
    """A simulated ad hoc network.

    Parameters
    ----------
    simulator:
        Discrete-event engine; a fresh one is created when omitted.
    medium:
        Wireless medium; defaults to a perfect unit-disk channel.
    mobility:
        Placement / mobility model applied to nodes added via
        :meth:`add_nodes`.
    seed:
        Seed for the network-level random generator (handed to components
        that need randomness but were not given their own RNG).
    """

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        medium: Optional[WirelessMedium] = None,
        mobility: Optional[MobilityModel] = None,
        seed: int = 0,
    ) -> None:
        self.simulator = simulator or Simulator()
        self.rng = random.Random(seed)
        self.medium = medium or WirelessMedium(
            self.simulator,
            propagation=UnitDiskPropagation(),
            loss_model=PerfectChannel(),
        )
        self.positions: PositionTable = PositionTable()
        self.medium.bind_positions(self.positions)
        self.mobility = mobility or GridPlacement()
        self.interfaces: Dict[str, NetworkInterface] = {}
        self.nodes: Dict[str, object] = {}
        self._mobility_installed = False

    # ------------------------------------------------------------ topology
    def neighbors_of(self, node_id: str) -> List[str]:
        """Nodes currently within radio range of ``node_id``."""
        return self.medium.neighbors_of(node_id)

    # ------------------------------------------------------------- node mgmt
    def create_interface(self, node_id: str, position: Optional[Position] = None) -> NetworkInterface:
        """Register a new node id and return its medium-facing interface."""
        # Intern the address: every frame, HELLO link advertisement and trust
        # record carries node-id strings, so a single shared copy per node
        # keeps the per-frame footprint flat at 1,024-node scale.
        node_id = sys.intern(node_id)
        if node_id in self.interfaces:
            raise ValueError(f"node {node_id!r} already exists")
        interface = NetworkInterface(node_id, self)
        self.interfaces[node_id] = interface
        self.medium.register(node_id, interface)
        self.positions[node_id] = position if position is not None else (0.0, 0.0)
        return interface

    def add_nodes(self, node_ids: List[str]) -> Dict[str, NetworkInterface]:
        """Create interfaces for ``node_ids`` and place them with the mobility model."""
        placements = self.mobility.place(node_ids)
        created = {}
        for node_id in node_ids:
            created[node_id] = self.create_interface(node_id, placements[node_id])
        if not self._mobility_installed:
            self.mobility.install(self)
            self._mobility_installed = True
        return created

    def attach_node(self, node_id: str, node: object) -> None:
        """Remember the protocol node object bound to ``node_id``."""
        self.nodes[node_id] = node

    # ---------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> None:
        """Run the underlying simulator until ``until`` (or queue exhaustion)."""
        self.simulator.run(until=until)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.simulator.now

    def engine_counters(self) -> Dict[str, int]:
        """Scheduler throughput counters (empty for engines without them).

        :class:`~repro.netsim.engine.Simulator` reports ``pushes``, ``pops``
        and ``cancelled_skipped``; an injected stand-in engine without
        ``counters()`` reports ``{}``.
        """
        counters = getattr(self.simulator, "counters", None)
        return counters() if callable(counters) else {}

    def node_ids(self) -> List[str]:
        """All registered node identifiers (sorted for determinism)."""
        return sorted(self.interfaces)
