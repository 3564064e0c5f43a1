"""OLSR packet: the unit handed to the link layer.

A packet bundles one or more OLSR messages (RFC §3.3).  In this simulator a
packet usually carries a single message, but piggybacking is supported and
exercised by tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, List

from repro.olsr.constants import PACKET_HEADER_SIZE
from repro.olsr.messages import OlsrMessage

_packet_seq = itertools.count(1)


@dataclass(slots=True)
class OlsrPacket:
    """A packet containing OLSR messages."""

    source: str
    messages: List[OlsrMessage] = field(default_factory=list)
    packet_seq_number: int = field(default_factory=_packet_seq.__next__)

    def add(self, message: OlsrMessage) -> None:
        """Append a message to the packet."""
        self.messages.append(message)

    def size_bytes(self) -> int:
        """Nominal on-air size: the packet header plus the messages."""
        return PACKET_HEADER_SIZE + sum(message.size_bytes() for message in self.messages)

    def __iter__(self):
        return iter(self.messages)

    def __len__(self) -> int:
        return len(self.messages)

    @classmethod
    def bundle(cls, source: str, messages: Iterable[OlsrMessage]) -> "OlsrPacket":
        """Build a packet containing ``messages`` in order."""
        packet = cls(source=source)
        for message in messages:
            packet.add(message)
        return packet
