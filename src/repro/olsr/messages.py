"""OLSR control messages (HELLO, TC) and the generic wrapper.

Messages are plain dataclasses; serialisation to bytes is not needed because
the simulator exchanges Python objects, but each message knows its nominal
wire size so the medium's collision/throughput accounting stays meaningful.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.olsr.constants import (
    DEFAULT_TTL,
    HELLO_BASE_SIZE,
    LinkType,
    MessageType,
    NeighborType,
    PER_ADDRESS_SIZE,
    TC_BASE_SIZE,
    Willingness,
)

_message_seq = itertools.count(1)


def next_message_sequence_number() -> int:
    """Global monotonically increasing message sequence number."""
    return next(_message_seq)


@dataclass(frozen=True, slots=True)
class LinkAdvertisement:
    """One advertised neighbour inside a HELLO message."""

    neighbor_address: str
    link_type: LinkType
    neighbor_type: NeighborType

    @property
    def is_symmetric(self) -> bool:
        """Whether the advertised neighbour is declared symmetric (or MPR)."""
        return self.neighbor_type in (NeighborType.SYM_NEIGH, NeighborType.MPR_NEIGH)


@dataclass(slots=True)
class HelloMessage:
    """HELLO: local link state and neighbour declaration (RFC §6).

    ``links`` lists every advertised neighbour with its link and neighbour
    type.  The symmetric set this message *declares* (the ``NS'_I`` of the
    paper's signature expressions) is :meth:`symmetric_neighbors`.
    """

    willingness: Willingness = Willingness.WILL_DEFAULT
    links: List[LinkAdvertisement] = field(default_factory=list)
    htime: float = 2.0

    message_type: MessageType = field(default=MessageType.HELLO, init=False)

    def add_link(
        self,
        neighbor_address: str,
        link_type: LinkType,
        neighbor_type: NeighborType,
    ) -> None:
        """Append an advertised neighbour.

        Addresses are interned: HELLOs repeat the same neighbour strings every
        emission interval, and interning keeps one copy per address alive
        across thousands of advertisements (and makes the set operations over
        them pointer-compare in the common case).
        """
        self.links.append(
            LinkAdvertisement(sys.intern(neighbor_address), link_type, neighbor_type)
        )

    def symmetric_neighbors(self) -> Set[str]:
        """Addresses declared as symmetric (SYM or MPR neighbour type)."""
        return {adv.neighbor_address for adv in self.links if adv.is_symmetric}

    def asymmetric_neighbors(self) -> Set[str]:
        """Addresses declared with an asymmetric (heard) link."""
        return {
            adv.neighbor_address
            for adv in self.links
            if adv.link_type == LinkType.ASYM_LINK and not adv.is_symmetric
        }

    def mpr_neighbors(self) -> Set[str]:
        """Addresses this node declares as its MPRs."""
        return {
            adv.neighbor_address
            for adv in self.links
            if adv.neighbor_type == NeighborType.MPR_NEIGH
        }

    def lost_neighbors(self) -> Set[str]:
        """Addresses declared with a lost link."""
        return {
            adv.neighbor_address
            for adv in self.links
            if adv.link_type == LinkType.LOST_LINK
        }

    def all_addresses(self) -> Set[str]:
        """Every address mentioned in the message."""
        return {adv.neighbor_address for adv in self.links}

    def size_bytes(self) -> int:
        """Nominal on-air size."""
        return HELLO_BASE_SIZE + PER_ADDRESS_SIZE * len(self.links)

    def copy(self) -> "HelloMessage":
        """Deep-enough copy (link advertisements are immutable)."""
        return HelloMessage(
            willingness=self.willingness,
            links=list(self.links),
            htime=self.htime,
        )


@dataclass(slots=True)
class TcMessage:
    """TC: topology declaration generated by MPRs (RFC §9).

    ``advertised_neighbors`` contains at least the MPR-selector set of the
    originator; ``ansn`` is bumped whenever that set changes.
    """

    ansn: int
    advertised_neighbors: Set[str] = field(default_factory=set)

    message_type: MessageType = field(default=MessageType.TC, init=False)

    def size_bytes(self) -> int:
        """Nominal on-air size."""
        return TC_BASE_SIZE + PER_ADDRESS_SIZE * len(self.advertised_neighbors)

    def copy(self) -> "TcMessage":
        """Independent copy."""
        return TcMessage(ansn=self.ansn, advertised_neighbors=set(self.advertised_neighbors))


@dataclass(slots=True)
class OlsrMessage:
    """Generic OLSR message wrapper (RFC §3.4 packet/message format).

    The wrapper carries forwarding metadata (TTL, hop count, sequence number)
    around one of the typed bodies above.
    """

    originator: str
    body: object
    vtime: float = 6.0
    ttl: int = DEFAULT_TTL
    hop_count: int = 0
    message_seq_number: int = field(default_factory=next_message_sequence_number)

    @property
    def message_type(self) -> MessageType:
        """Type of the wrapped body."""
        return self.body.message_type

    def size_bytes(self) -> int:
        """Nominal on-air size including the 12-byte message header."""
        return 12 + self.body.size_bytes()

    def forwarded_copy(self) -> "OlsrMessage":
        """Copy used when retransmitting: TTL decremented, hop count incremented.

        The originator and sequence number are preserved so duplicate
        suppression keeps working along the flooding tree.
        """
        return OlsrMessage(
            originator=self.originator,
            body=self.body,
            vtime=self.vtime,
            ttl=self.ttl - 1,
            hop_count=self.hop_count + 1,
            message_seq_number=self.message_seq_number,
        )

    def describe(self) -> Dict[str, str]:
        """Small dict used for logging/tracing."""
        return {
            "type": str(self.message_type),
            "origin": self.originator,
            "seq": str(self.message_seq_number),
            "ttl": str(self.ttl),
            "hops": str(self.hop_count),
        }


def make_hello(
    willingness: Willingness = Willingness.WILL_DEFAULT,
    symmetric: Optional[Set[str]] = None,
    asymmetric: Optional[Set[str]] = None,
    mprs: Optional[Set[str]] = None,
    lost: Optional[Set[str]] = None,
) -> HelloMessage:
    """Convenience HELLO builder used by tests and attack modules.

    ``mprs`` must be a subset of ``symmetric``; addresses in ``mprs`` are
    advertised with the MPR neighbour type, the remaining symmetric addresses
    with SYM, ``asymmetric`` with ASYM and ``lost`` with LOST.
    """
    symmetric = set(symmetric or set())
    asymmetric = set(asymmetric or set())
    mprs = set(mprs or set())
    lost = set(lost or set())
    if not mprs <= symmetric:
        raise ValueError("MPRs must be a subset of the symmetric neighbours")
    hello = HelloMessage(willingness=willingness)
    for address in sorted(symmetric):
        neighbor_type = NeighborType.MPR_NEIGH if address in mprs else NeighborType.SYM_NEIGH
        hello.add_link(address, LinkType.SYM_LINK, neighbor_type)
    for address in sorted(asymmetric - symmetric):
        hello.add_link(address, LinkType.ASYM_LINK, NeighborType.NOT_NEIGH)
    for address in sorted(lost - symmetric - asymmetric):
        hello.add_link(address, LinkType.LOST_LINK, NeighborType.NOT_NEIGH)
    return hello
