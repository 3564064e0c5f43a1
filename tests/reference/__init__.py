"""Reference implementations the parity suites compare the program against.

* :class:`HeapSimulator` — an event engine whose heap holds event objects
  ordered by a Python ``__lt__``, the ordering oracle of
  :class:`repro.netsim.engine.Simulator`'s tuple heap.
* :class:`PerReceiverMedium` — a :class:`repro.netsim.medium.WirelessMedium`
  that scans every interface, checks range and loss receiver by receiver
  and schedules one delivery event per receiver.
* :func:`scan_neighbors` / :func:`scan_connectivity` — the all-pairs
  neighbour scan the medium's spatial grid replaced.
* :func:`path_avoiding` — the per-query BFS the investigation transport's
  cached reachable sets replaced.
* :class:`RebuildingTopologySet` — the topology set with one tuple per
  edge, which rescans stale ANSNs and replaces every refreshed tuple on
  each TC.
* :class:`FlatDuplicateSet` — the duplicate set with one
  (originator, sequence number) key tuple per entry and a set of
  retransmitted keys.
* :func:`select_mprs` — the MPR selection that rebuilds the other MPRs'
  coverage count for every MPR its redundancy prune considers.
* :mod:`tests.reference.trust` — an investigation round computed evidence
  by evidence: one :class:`repro.trust.evidence.TrustEvidence` per
  responder, one per-subject Eq. 5 update each, and Eqs. 8–10 over
  responders sorted twice, each reply queried per responder and the
  majority found by a second walk
  (:class:`~tests.reference.trust.PerSubjectTrust`,
  :func:`~tests.reference.trust.run_round`).

None is used by the program; they are oracles for its single paths.
"""

from tests.reference.duplicate import FlatDuplicateSet
from tests.reference.engine import HeapSimulator
from tests.reference.medium import PerReceiverMedium, scan_connectivity, scan_neighbors
from tests.reference.mpr import select_mprs
from tests.reference.paths import path_avoiding
from tests.reference.topology import RebuildingTopologySet

__all__ = ["FlatDuplicateSet", "HeapSimulator", "PerReceiverMedium",
           "RebuildingTopologySet", "path_avoiding", "scan_connectivity",
           "scan_neighbors", "select_mprs"]
