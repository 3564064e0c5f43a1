"""Pure-Python OLSR (RFC 3626) implementation.

This package is the routing substrate the paper's detector observes.  It
implements the core of the Optimized Link State Routing protocol: link
sensing and neighbour detection from HELLO messages, MPR selection and
signalling, TC flooding through MPRs, topology discovery and hop-count
routing-table calculation.  Every protocol event of interest is written to a
:class:`repro.logs.store.LogStore`, which is what the intrusion detector
consumes.
"""

from repro.olsr.constants import (
    HELLO_INTERVAL,
    LinkType,
    MessageType,
    NeighborType,
    TC_INTERVAL,
    Willingness,
)
from repro.olsr.duplicate import DuplicateSet
from repro.olsr.link_state import (
    LinkSet,
    LinkTuple,
    MprSelectorSet,
    MprSelectorTuple,
    NeighborSet,
    NeighborTuple,
    TwoHopNeighborSet,
    TwoHopTuple,
)
from repro.olsr.messages import (
    HelloMessage,
    LinkAdvertisement,
    OlsrMessage,
    TcMessage,
)
from repro.olsr.mpr import MprComputationResult, mpr_coverage_complete, select_mprs
from repro.olsr.node import OlsrNode
from repro.olsr.packet import OlsrPacket
from repro.olsr.routing import RouteEntry, RoutingTable, compute_routing_table
from repro.olsr.topology import TopologySet, TopologyTuple

__all__ = [
    "DuplicateSet",
    "HELLO_INTERVAL",
    "HelloMessage",
    "LinkAdvertisement",
    "LinkSet",
    "LinkTuple",
    "LinkType",
    "MessageType",
    "MprComputationResult",
    "MprSelectorSet",
    "MprSelectorTuple",
    "NeighborSet",
    "NeighborTuple",
    "NeighborType",
    "OlsrMessage",
    "OlsrNode",
    "OlsrPacket",
    "RouteEntry",
    "RoutingTable",
    "TC_INTERVAL",
    "TcMessage",
    "TopologySet",
    "TopologyTuple",
    "TwoHopNeighborSet",
    "TwoHopTuple",
    "Willingness",
    "compute_routing_table",
    "mpr_coverage_complete",
    "select_mprs",
]
