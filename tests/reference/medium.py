"""The per-receiver medium: the delivery oracle of the batch parity suite."""

from __future__ import annotations

from typing import Optional

from repro.netsim.medium import WirelessMedium, _BusyEntry
from repro.netsim.packet import Frame


class PerReceiverMedium(WirelessMedium):
    """``WirelessMedium`` whose ``transmit`` decides every receiver alone.

    Each candidate receiver is range-checked against its live position,
    then loss, the collision window and the jitter draw are taken in turn,
    and each survivor gets its own delivery event.  The program's
    ``transmit`` must be observably identical to this: same deliveries,
    same order, same statistics, same rng consumption, and
    ``processed_events + batched_deliveries_saved`` equal to this
    medium's ``processed_events``.
    """

    def transmit(self, frame: Frame) -> None:
        if self._position_of is None:
            raise RuntimeError("medium has no position oracle bound")
        if frame.source not in self._interfaces:
            raise ValueError(f"unknown transmitter {frame.source!r}")
        now = self._simulator.now
        frame.created_at = now
        if frame._frame_id is None:
            frame._frame_id = next(self._frame_ids)
        sender_pos = self._position_of(frame.source)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += frame.size_bytes

        if frame.is_broadcast:
            grid = self._current_grid()
            if grid is not None:
                candidates = grid.candidates_near(
                    sender_pos, self._range_of_sender(frame.source))
                receivers = [nid for nid in candidates if nid != frame.source]
                receivers.sort(key=self._order.__getitem__)
                # Anything outside the candidate cells is out of range.
                self.stats.frames_out_of_range += (
                    len(self._interfaces) - 1 - len(receivers))
            else:
                receivers = [nid for nid in self._interfaces if nid != frame.source]
        else:
            receivers = [frame.destination] if frame.destination in self._interfaces else []
            if not receivers:
                self.stats.frames_unroutable += 1
                return

        for receiver_id in receivers:
            receiver_pos = self._position_of(receiver_id)
            if not self._reaches(frame.source, sender_pos, receiver_pos):
                self.stats.frames_out_of_range += 1
                continue
            if self.loss_model.is_lost(frame, sender_pos, receiver_pos):
                self.stats.frames_lost += 1
                continue
            entry: Optional[_BusyEntry] = None
            if self.collision_model is not None:
                entry, collided = self._check_collision(receiver_id, frame, now)
                if collided:
                    self.stats.frames_collided += 1
                    continue
            delay = self.propagation_delay
            if self.jitter:
                delay += self._rng.uniform(0.0, self.jitter)
            tx_info = None
            if self.trace_recorder is not None:
                tx_info = (sender_pos, receiver_pos, self._safe_range_of(frame.source))
            if entry is not None:
                entry.handle = self._simulator.schedule(
                    delay, self._deliver, receiver_id, frame, entry, tx_info)
            else:
                self._simulator.post(delay, self._deliver, receiver_id,
                                     frame, None, tx_info)
