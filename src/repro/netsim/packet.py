"""Link-layer frame model used by the wireless medium.

A :class:`Frame` carries an opaque ``payload`` (for OLSR this is an
:class:`repro.olsr.packet.OlsrPacket`).  The medium delivers broadcasts
only, so every frame a node sends is addressed to the link-layer broadcast
address.

Frame ids
---------
Every frame gets a monotonically increasing ``frame_id`` so traces can
tell transmissions apart.  Ids are
allocated lazily: :meth:`repro.netsim.medium.WirelessMedium.transmit` stamps
each frame from the *medium's own* counter, so two networks running in one
process (the differential validation harness runs oracle and netsim side by
side) never interleave their id streams.  A frame whose id is read before it
ever touches a medium (unit tests, reprs) falls back to a module-level pool.
Nothing derives hashes or seeds from frame ids — they are trace labels only —
so no ``stable_seed`` derivation is needed for them.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

#: Link-layer broadcast destination; every node within radio range receives it.
BROADCAST_ADDRESS = "ff:ff"

#: Fallback id pool for frames inspected before any medium stamped them.
_frame_ids = itertools.count(1)


class Frame:
    """A link-layer transmission unit.

    Attributes
    ----------
    source:
        Identifier of the transmitting node.
    destination:
        Identifier of the intended receiver, or :data:`BROADCAST_ADDRESS`.
    payload:
        Arbitrary upper-layer content.
    size_bytes:
        Nominal on-air size used by statistics.
    frame_id:
        Monotonically increasing identifier, stamped by the transmitting
        medium (or lazily from a module pool when read before transmission).
    created_at:
        Simulated time at which the frame was handed to the medium (filled in
        by the medium).
    metadata:
        Free-form dictionary for attack modules and traces (e.g. replay
        markers, wormhole tunnel ids).
    """

    __slots__ = ("source", "destination", "payload", "size_bytes",
                 "_frame_id", "created_at", "metadata")

    def __init__(
        self,
        source: str,
        destination: str,
        payload: Any,
        size_bytes: int = 64,
        frame_id: Optional[int] = None,
        created_at: Optional[float] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        self.source = source
        self.destination = destination
        self.payload = payload
        self.size_bytes = size_bytes
        self._frame_id = frame_id
        self.created_at = created_at
        self.metadata = {} if metadata is None else metadata

    @property
    def frame_id(self) -> int:
        """The frame's id, drawn from the fallback pool on first access."""
        if self._frame_id is None:
            self._frame_id = next(_frame_ids)
        return self._frame_id

    @frame_id.setter
    def frame_id(self, value: int) -> None:
        self._frame_id = value

    @property
    def is_broadcast(self) -> bool:
        """Whether the frame is addressed to every node in range."""
        return self.destination == BROADCAST_ADDRESS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "bcast" if self.is_broadcast else f"to={self.destination}"
        return f"Frame(#{self.frame_id} {self.source} {kind} {self.size_bytes}B)"
