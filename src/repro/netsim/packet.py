"""Link-layer frame model used by the wireless medium.

A :class:`Frame` carries an opaque ``payload`` (for OLSR this is an
:class:`repro.olsr.packet.OlsrPacket`).  The medium delivers broadcasts
only, so a frame names no destination: every node within radio range of
its source receives it.
"""

from __future__ import annotations

from typing import Any


class Frame:
    """A link-layer transmission unit.

    Attributes
    ----------
    source:
        Identifier of the transmitting node.
    payload:
        Arbitrary upper-layer content.
    size_bytes:
        Nominal on-air size used by statistics.
    """

    __slots__ = ("source", "payload", "size_bytes")

    def __init__(self, source: str, payload: Any, size_bytes: int = 64) -> None:
        self.source = source
        self.payload = payload
        self.size_bytes = size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.source} {self.size_bytes}B)"
