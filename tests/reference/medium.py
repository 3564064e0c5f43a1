"""The per-receiver medium and the all-pairs neighbour scan.

:class:`PerReceiverMedium` is the delivery oracle of the batch parity suite,
and :func:`scan_neighbors` / :func:`scan_connectivity` are the oracles of
the medium's spatial grid.
"""

from __future__ import annotations

import math

from repro.netsim.medium import PROPAGATION_DELAY, WirelessMedium
from repro.netsim.packet import Frame


def scan_neighbors(node_ids, positions, propagation, node_id):
    """The ids in ``node_ids`` (in that order), other than ``node_id``, that
    ``propagation`` says a frame sent from ``node_id`` reaches."""
    origin = positions[node_id]
    return [other for other in node_ids
            if other != node_id and propagation.in_range(origin, positions[other])]


def scan_connectivity(node_ids, positions, propagation):
    """:func:`scan_neighbors` of every node: ``node id -> neighbour ids``."""
    return {node_id: scan_neighbors(node_ids, positions, propagation, node_id)
            for node_id in node_ids}


class PerReceiverMedium(WirelessMedium):
    """A medium whose ``transmit`` decides every receiver alone.

    It broadcasts: it scans every registered interface in registration
    order, range-checks each against its live position (the unit-disk test,
    inlined), draws its loss with the loss model's ``is_lost``, and posts one
    delivery event per receiver, which looks the receiver up by id when it
    fires.  It uses
    none of the medium's caches or helpers; neighbour queries are inherited.
    The program's ``transmit`` must be observably identical to this: same
    deliveries, same order, same statistics, same rng consumption, and
    ``processed_events + batched_deliveries_saved`` equal to this medium's
    ``processed_events``.
    """

    def __init__(self, simulator, *args, **kwargs) -> None:
        super().__init__(simulator, *args, **kwargs)
        self._engine = simulator
        self._receivers = {}
        self._live_positions = None

    def bind_positions(self, positions) -> None:
        super().bind_positions(positions)
        self._live_positions = positions

    def register(self, node_id, interface) -> None:
        super().register(node_id, interface)
        self._receivers[node_id] = interface

    def transmit(self, frame: Frame) -> None:
        source = frame.source
        if source not in self._receivers:
            raise ValueError(f"unknown transmitter {source!r}")
        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += frame.size_bytes
        candidates = [nid for nid in self._receivers if nid != source]
        positions = self._live_positions
        sender_pos = positions[source]
        radio_range = self.propagation.radio_range
        for receiver_id in candidates:
            receiver_pos = positions[receiver_id]
            if not (math.hypot(sender_pos[0] - receiver_pos[0],
                               sender_pos[1] - receiver_pos[1]) <= radio_range):
                stats.frames_out_of_range += 1
                continue
            if self.loss_model.is_lost(frame, sender_pos, receiver_pos):
                stats.frames_lost += 1
                continue
            tx_info = None
            if self.trace_recorder is not None:
                tx_info = (sender_pos, receiver_pos, float(radio_range))
            self._engine.post(PROPAGATION_DELAY, self._deliver_one,
                              receiver_id, frame, tx_info)

    def _deliver_one(self, receiver_id, frame, tx_info) -> None:
        interface = self._receivers[receiver_id]
        self.stats.frames_delivered += 1
        self.stats.bytes_delivered += frame.size_bytes
        now = self._engine.now
        if self.trace_recorder is not None and tx_info is not None:
            sender_pos, receiver_pos, tx_range = tx_info
            self.trace_recorder.record(
                now, "medium", receiver_id, "FRAME_DELIVERED",
                source=frame.source,
                sender_pos=sender_pos,
                receiver_pos=receiver_pos,
                tx_range=tx_range,
            )
        interface.receive(frame, now)
