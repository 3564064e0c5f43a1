"""Transmission statistics collected by the wireless medium."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict


@dataclass
class MediumStatistics:
    """Counters maintained by :class:`repro.netsim.medium.WirelessMedium`.

    The medium models no collisions, so ``frames_collided`` stays 0.
    """

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_lost: int = 0
    frames_collided: int = 0
    frames_out_of_range: int = 0
    frames_unroutable: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0

    @property
    def delivery_ratio(self) -> float:
        """Delivered / attempted per-receiver deliveries (0 when nothing sent)."""
        attempted = (
            self.frames_delivered
            + self.frames_lost
            + self.frames_collided
            + self.frames_out_of_range
        )
        if attempted == 0:
            return 0.0
        return self.frames_delivered / attempted

    @property
    def loss_ratio(self) -> float:
        """Lost (channel loss, plus any collisions) / attempted deliveries."""
        attempted = (
            self.frames_delivered
            + self.frames_lost
            + self.frames_collided
            + self.frames_out_of_range
        )
        if attempted == 0:
            return 0.0
        return (self.frames_lost + self.frames_collided) / attempted

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all counters plus derived ratios."""
        data = asdict(self)
        data["delivery_ratio"] = self.delivery_ratio
        data["loss_ratio"] = self.loss_ratio
        return data

    def reset(self) -> None:
        """Zero every counter."""
        for name in (
            "frames_sent",
            "frames_delivered",
            "frames_lost",
            "frames_collided",
            "frames_out_of_range",
            "frames_unroutable",
            "bytes_sent",
            "bytes_delivered",
        ):
            setattr(self, name, 0)


@dataclass
class NodeStatistics:
    """Per-node transmit/receive counters (used by OLSR nodes).

    Each message count is stored once, per message type, in
    ``per_type_sent`` and ``per_type_received``; the totals and the HELLO/TC
    counts are read-only views of those two dicts.  Keys are the message
    type names (``MessageType`` members are ``str``, so ``"HELLO"`` and
    ``MessageType.HELLO`` name the same entry).  ``OlsrNode.handle_control``
    counts each received message into ``per_type_received`` itself.
    """

    messages_forwarded: int = 0
    messages_dropped: int = 0
    duplicates_suppressed: int = 0
    per_type_sent: Dict[str, int] = field(default_factory=dict)
    per_type_received: Dict[str, int] = field(default_factory=dict)

    def record_sent(self, message_type: str) -> None:
        """Account for an originated message of ``message_type``."""
        self.per_type_sent[message_type] = self.per_type_sent.get(message_type, 0) + 1

    @property
    def messages_sent(self) -> int:
        """Originated messages of every type."""
        return sum(self.per_type_sent.values())

    @property
    def messages_received(self) -> int:
        """Received messages of every type."""
        return sum(self.per_type_received.values())

    @property
    def hello_sent(self) -> int:
        """Originated HELLOs."""
        return self.per_type_sent.get("HELLO", 0)

    @property
    def hello_received(self) -> int:
        """Received HELLOs."""
        return self.per_type_received.get("HELLO", 0)

    @property
    def tc_sent(self) -> int:
        """Originated TCs."""
        return self.per_type_sent.get("TC", 0)

    @property
    def tc_received(self) -> int:
        """Received TCs."""
        return self.per_type_received.get("TC", 0)
