"""Tests for OLSR messages, link codes and the packet wrapper."""

from __future__ import annotations

import pytest

from repro.olsr.constants import (
    LinkType,
    MessageType,
    NeighborType,
    Willingness,
    decode_link_code,
    encode_link_code,
)
from repro.olsr.messages import (
    HelloMessage,
    LinkAdvertisement,
    OlsrMessage,
    TcMessage,
    make_hello,
)
from repro.olsr.packet import OlsrPacket


def test_link_code_roundtrip():
    for link_type in LinkType:
        for neighbor_type in NeighborType:
            code = encode_link_code(link_type, neighbor_type)
            assert decode_link_code(code) == (link_type, neighbor_type)


def test_hello_symmetric_neighbors_includes_mpr_type():
    hello = HelloMessage()
    hello.add_link("n1", LinkType.SYM_LINK, NeighborType.SYM_NEIGH)
    hello.add_link("n2", LinkType.SYM_LINK, NeighborType.MPR_NEIGH)
    hello.add_link("n3", LinkType.ASYM_LINK, NeighborType.NOT_NEIGH)
    assert hello.symmetric_neighbors() == {"n1", "n2"}
    assert hello.mpr_neighbors() == {"n2"}
    assert hello.asymmetric_neighbors() == {"n3"}


def test_hello_lost_neighbors_and_all_addresses():
    hello = HelloMessage()
    hello.add_link("n1", LinkType.LOST_LINK, NeighborType.NOT_NEIGH)
    hello.add_link("n2", LinkType.SYM_LINK, NeighborType.SYM_NEIGH)
    assert hello.lost_neighbors() == {"n1"}
    assert hello.all_addresses() == {"n1", "n2"}


def test_hello_copy_is_independent():
    hello = HelloMessage(willingness=Willingness.WILL_HIGH)
    hello.add_link("n1", LinkType.SYM_LINK, NeighborType.SYM_NEIGH)
    copy = hello.copy()
    copy.add_link("n2", LinkType.SYM_LINK, NeighborType.SYM_NEIGH)
    assert hello.symmetric_neighbors() == {"n1"}
    assert copy.symmetric_neighbors() == {"n1", "n2"}
    assert copy.willingness == Willingness.WILL_HIGH


def test_hello_size_grows_with_links():
    empty = HelloMessage()
    one = HelloMessage(links=[LinkAdvertisement("n1", LinkType.SYM_LINK, NeighborType.SYM_NEIGH)])
    assert one.size_bytes() > empty.size_bytes()


def test_make_hello_classifies_addresses():
    hello = make_hello(
        symmetric={"s1", "s2"},
        mprs={"s1"},
        asymmetric={"a1"},
        lost={"l1"},
    )
    assert hello.symmetric_neighbors() == {"s1", "s2"}
    assert hello.mpr_neighbors() == {"s1"}
    assert hello.asymmetric_neighbors() == {"a1"}
    assert hello.lost_neighbors() == {"l1"}


def test_make_hello_mpr_must_be_symmetric():
    with pytest.raises(ValueError):
        make_hello(symmetric={"a"}, mprs={"b"})


def test_tc_message_copy_and_size():
    tc = TcMessage(ansn=5, advertised_neighbors={"a", "b"})
    copy = tc.copy()
    copy.advertised_neighbors.add("c")
    assert tc.advertised_neighbors == {"a", "b"}
    assert copy.size_bytes() > tc.size_bytes()


def test_olsr_message_type_follows_body():
    hello = OlsrMessage(originator="a", body=HelloMessage())
    tc = OlsrMessage(originator="a", body=TcMessage(ansn=1))
    assert hello.message_type == MessageType.HELLO
    assert tc.message_type == MessageType.TC


def test_message_sequence_numbers_increase():
    first = OlsrMessage(originator="a", body=TcMessage(ansn=1))
    second = OlsrMessage(originator="a", body=TcMessage(ansn=1))
    assert second.message_seq_number > first.message_seq_number


def test_forwarded_copy_updates_ttl_and_hops_only():
    message = OlsrMessage(originator="a", body=TcMessage(ansn=1), ttl=10, hop_count=2)
    forwarded = message.forwarded_copy()
    assert forwarded.ttl == 9
    assert forwarded.hop_count == 3
    assert forwarded.originator == "a"
    assert forwarded.message_seq_number == message.message_seq_number
    assert forwarded.body is message.body


def test_message_describe_fields():
    message = OlsrMessage(originator="a", body=HelloMessage(), ttl=1)
    described = message.describe()
    assert described["type"] == "HELLO"
    assert described["origin"] == "a"
    assert described["ttl"] == "1"


def test_packet_bundle_and_iteration():
    messages = [
        OlsrMessage(originator="a", body=HelloMessage()),
        OlsrMessage(originator="a", body=TcMessage(ansn=1)),
    ]
    packet = OlsrPacket.bundle("a", messages)
    assert len(packet) == 2
    assert [m.message_type for m in packet] == [MessageType.HELLO, MessageType.TC]
    assert packet.size_bytes() > sum(m.size_bytes() for m in messages)


def test_packet_sequence_numbers_increase():
    a = OlsrPacket(source="a")
    b = OlsrPacket(source="a")
    assert b.packet_seq_number > a.packet_seq_number
