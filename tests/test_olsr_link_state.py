"""Tests for the OLSR information repositories (link / neighbour / 2-hop / selector sets)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.olsr.constants import Willingness
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


# ----------------------------------------------------------------- link set
def test_link_status_transitions():
    link = LinkTuple("me", "n1", sym_time=10.0, asym_time=10.0, expiry_time=20.0)
    assert link.is_symmetric(5.0)
    assert not link.is_symmetric(11.0)
    assert link.is_asymmetric(11.0) is False  # asym expired too
    link2 = LinkTuple("me", "n1", sym_time=-1.0, asym_time=10.0, expiry_time=20.0)
    assert link2.is_asymmetric(5.0) and not link2.is_symmetric(5.0)
    assert not link2.is_asymmetric(15.0) and not link2.is_symmetric(15.0)


def test_link_set_upsert_and_queries():
    links = LinkSet()
    links.upsert(LinkTuple("me", "a", sym_time=10.0, asym_time=10.0, expiry_time=20.0))
    links.upsert(LinkTuple("me", "b", sym_time=-1.0, asym_time=10.0, expiry_time=20.0))
    assert links.symmetric_neighbors(5.0) == {"a"}
    assert links.asymmetric_neighbors(5.0) == {"b"}
    assert {link.neighbor_address for link in links} == {"a", "b"}
    assert len(links) == 2


def test_link_set_purge_expired():
    links = LinkSet()
    links.upsert(LinkTuple("me", "a", expiry_time=5.0))
    links.upsert(LinkTuple("me", "b", expiry_time=50.0))
    expired = links.purge_expired(10.0)
    assert [l.neighbor_address for l in expired] == ["a"]
    assert links.get("a") is None
    assert links.get("b") is not None


def test_link_set_remove():
    links = LinkSet()
    links.upsert(LinkTuple("me", "a", expiry_time=5.0))
    links.remove("a")
    links.remove("ghost")  # removing absent link is a no-op
    assert len(links) == 0


# ------------------------------------------------------------- neighbour set
def test_neighbor_set_symmetric_and_willingness():
    neighbors = NeighborSet()
    neighbors.upsert(NeighborTuple("a", symmetric=True, willingness=Willingness.WILL_HIGH))
    neighbors.upsert(NeighborTuple("b", symmetric=False))
    assert neighbors.symmetric_neighbors() == {"a"}
    assert neighbors.get("a").willingness == Willingness.WILL_HIGH
    assert neighbors.addresses() == {"a", "b"}


def test_neighbor_set_remove():
    neighbors = NeighborSet()
    neighbors.upsert(NeighborTuple("a"))
    neighbors.remove("a")
    assert neighbors.get("a") is None
    assert len(neighbors) == 0


# ----------------------------------------------------------------- 2-hop set
def build_two_hop_set() -> TwoHopNeighborSet:
    two_hop = TwoHopNeighborSet()
    two_hop.upsert(TwoHopTuple("n1", "x", expiry_time=100.0))
    two_hop.upsert(TwoHopTuple("n1", "y", expiry_time=100.0))
    two_hop.upsert(TwoHopTuple("n2", "y", expiry_time=100.0))
    two_hop.upsert(TwoHopTuple("n2", "z", expiry_time=100.0))
    return two_hop


def two_hop_addresses(two_hop: TwoHopNeighborSet) -> set:
    """Every 2-hop address of ``two_hop``."""
    return {t.two_hop_address for t in two_hop}


def test_two_hop_queries():
    two_hop = build_two_hop_set()
    assert two_hop_addresses(two_hop) == {"x", "y", "z"}
    assert two_hop.reachable_through("n1") == {"x", "y"}
    assert two_hop.providers_of("y") == {"n1", "n2"}
    assert two_hop.providers_of("x") == {"n1"}
    assert two_hop.coverage_map() == {"n1": {"x", "y"}, "n2": {"y", "z"}}


def test_two_hop_remove_for_neighbor():
    two_hop = build_two_hop_set()
    two_hop.remove_for_neighbor("n1")
    assert two_hop_addresses(two_hop) == {"y", "z"}
    assert two_hop.reachable_through("n1") == set()


def test_two_hop_remove_single_tuple():
    two_hop = build_two_hop_set()
    two_hop.remove("n2", "y")
    assert two_hop.providers_of("y") == {"n1"}


def test_two_hop_purge_expired():
    two_hop = TwoHopNeighborSet()
    two_hop.upsert(TwoHopTuple("n1", "x", expiry_time=5.0))
    two_hop.upsert(TwoHopTuple("n1", "y", expiry_time=50.0))
    expired = two_hop.purge_expired(10.0)
    assert len(expired) == 1
    assert two_hop_addresses(two_hop) == {"y"}


def test_two_hop_upsert_refreshes_existing():
    two_hop = TwoHopNeighborSet()
    two_hop.upsert(TwoHopTuple("n1", "x", expiry_time=5.0))
    two_hop.upsert(TwoHopTuple("n1", "x", expiry_time=50.0))
    assert len(two_hop) == 1
    assert two_hop.purge_expired(10.0) == []


def test_two_hop_version_counts_structural_changes_only():
    two_hop = TwoHopNeighborSet()
    two_hop.upsert(TwoHopTuple("n1", "x", expiry_time=5.0))
    assert two_hop.version == 1
    two_hop.upsert(TwoHopTuple("n1", "x", expiry_time=50.0))  # a refresh
    assert two_hop.version == 1
    two_hop.upsert(TwoHopTuple("n1", "y", expiry_time=5.0))
    two_hop.upsert(TwoHopTuple("n2", "y", expiry_time=50.0))
    assert two_hop.version == 3
    two_hop.remove("n2", "x")  # absent pair
    two_hop.remove("n3", "x")  # absent neighbour
    assert two_hop.version == 3
    two_hop.remove("n2", "y")
    assert two_hop.version == 4
    assert [(t.neighbor_address, t.two_hop_address)
            for t in two_hop.purge_expired(10.0)] == [("n1", "y")]
    assert two_hop.version == 5
    assert two_hop.purge_expired(10.0) == []
    two_hop.remove_for_neighbor("n2")  # no tuple left through n2
    assert two_hop.version == 5
    two_hop.remove_for_neighbor("n1")
    assert two_hop.version == 6
    assert len(two_hop) == 0 and two_hop.coverage_map() == {}


_neighbour = st.sampled_from(["n1", "n2", "n3", "n4"])
_address = st.sampled_from(["n1", "n2", "x", "y", "z"])
#: A HELLO's symmetric set as its receiver "me" sees it: it may name "me".
_advertised = st.sets(st.sampled_from(["me", "n1", "n2", "x", "y", "z"]))
_operation = st.one_of(
    st.tuples(st.just("upsert"), _neighbour, _address, st.integers(0, 20)),
    st.tuples(st.just("remove"), _neighbour, _address),
    st.tuples(st.just("remove_for_neighbor"), _neighbour),
    st.tuples(st.just("purge_expired"), st.integers(0, 20)),
    st.tuples(st.just("refresh"), _neighbour, _advertised, st.integers(0, 20)),
)


def _per_address_refresh(two_hop, tuples, neighbour, advertised, expiry):
    """One HELLO as ``process_hello`` applied it before the in-place refresh:
    an upsert per advertised address, then a remove per withdrawn one.
    Returns the TWO_HOP records it logged, in order."""
    previous = two_hop.reachable_through(neighbour)
    records = []
    for address in sorted(advertised):
        if address == "me":
            continue
        two_hop.upsert(TwoHopTuple(neighbour, address, expiry_time=expiry))
        tuples[(neighbour, address)] = expiry
        if address not in previous:
            records.append(("TWO_HOP_ADDED", address))
    for address in sorted(previous - advertised):
        two_hop.remove(neighbour, address)
        del tuples[(neighbour, address)]
        records.append(("TWO_HOP_REMOVED", address))
    return records


def _ordered(two_hop):
    return [(t.neighbor_address, t.two_hop_address, t.expiry_time) for t in two_hop]


@given(operations=st.lists(_operation, max_size=40))
@settings(max_examples=300, deadline=None)
def test_two_hop_queries_equal_a_brute_force_pass(operations):
    two_hop = TwoHopNeighborSet()
    per_address = TwoHopNeighborSet()  # driven by per-address upserts/removes
    tuples = {}  # (neighbour, 2-hop address) -> expiry: the brute-force model
    for operation in operations:
        version, keys = two_hop.version, set(tuples)
        kind, *args = operation
        if kind == "upsert":
            neighbour, address, expiry = args
            for target in (two_hop, per_address):
                target.upsert(TwoHopTuple(neighbour, address, expiry_time=float(expiry)))
            tuples[(neighbour, address)] = float(expiry)
        elif kind == "remove":
            two_hop.remove(*args)
            per_address.remove(*args)
            tuples.pop(tuple(args), None)
        elif kind == "remove_for_neighbor":
            two_hop.remove_for_neighbor(args[0])
            per_address.remove_for_neighbor(args[0])
            tuples = {k: v for k, v in tuples.items() if k[0] != args[0]}
        elif kind == "refresh":
            neighbour, advertised, expiry = args
            added, withdrawn = two_hop.refresh(neighbour, tuple(sorted(advertised)),
                                               "me", float(expiry))
            records = _per_address_refresh(per_address, tuples, neighbour,
                                           advertised, float(expiry))
            assert ([("TWO_HOP_ADDED", a) for a in added]
                    + [("TWO_HOP_REMOVED", a) for a in withdrawn]) == records
        else:
            now = float(args[0])
            purged = two_hop.purge_expired(now)
            assert _ordered(purged) == _ordered(per_address.purge_expired(now))
            expired = {k for k, v in tuples.items() if v < now}
            assert {(t.neighbor_address, t.two_hop_address) for t in purged} == expired
            tuples = {k: v for k, v in tuples.items() if k not in expired}
        assert (two_hop.version != version) == (set(tuples) != keys)
        assert two_hop.version == per_address.version
        assert _ordered(two_hop) == _ordered(per_address)
        assert {(t.neighbor_address, t.two_hop_address): t.expiry_time
                for t in two_hop} == tuples
        assert len(two_hop) == len(tuples)
        assert two_hop.sorted_pairs() == sorted((a, n) for n, a in tuples)
        assert two_hop_addresses(two_hop) == {a for _, a in tuples}
        coverage = {}
        for neighbour, address in tuples:
            coverage.setdefault(neighbour, set()).add(address)
        assert two_hop.coverage_map() == coverage
        for name in ("n1", "n2", "n3", "n4", "x", "y", "z"):
            assert two_hop.reachable_through(name) == coverage.get(name, set())
            assert two_hop.providers_of(name) == {n for n, a in tuples if a == name}


# ------------------------------------------------------------- selector set
def test_mpr_selector_set_membership_and_purge():
    selectors = MprSelectorSet()
    selectors.upsert(MprSelectorTuple("a", expiry_time=5.0))
    selectors.upsert(MprSelectorTuple("b", expiry_time=50.0))
    assert "a" in selectors.by_address
    assert selectors.addresses() == {"a", "b"}
    expired = selectors.purge_expired(10.0)
    assert [s.selector_address for s in expired] == ["a"]
    assert "a" not in selectors.by_address
    assert len(selectors) == 1


def test_mpr_selector_remove():
    selectors = MprSelectorSet()
    selectors.upsert(MprSelectorTuple("a", expiry_time=50.0))
    selectors.remove("a")
    selectors.remove("ghost")
    assert selectors.addresses() == set()


def test_mpr_selector_refresh_pushes_a_known_selector_in_place():
    selectors = MprSelectorSet()
    assert selectors.refresh("a", 5.0) is True
    record = next(iter(selectors))
    # A known selector: its expiry moves, and no new selector (no ANSN bump).
    assert selectors.refresh("a", 50.0) is False
    assert next(iter(selectors)) is record and record.expiry_time == 50.0
    assert selectors.purge_expired(10.0) == []
    assert selectors.refresh("b", 7.0) is True
    assert [s.selector_address for s in selectors] == ["a", "b"]
