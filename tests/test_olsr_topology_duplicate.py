"""Tests for the topology set (TC processing) and the duplicate set."""

from __future__ import annotations

import gc
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.olsr.duplicate import DuplicateSet
from repro.olsr.topology import TopologySet, _ansn_older
from tests.reference import FlatDuplicateSet, RebuildingTopologySet


def _edges(topology):
    """The stored (destination, last hop) edges."""
    return {(t.destination_address, t.last_address) for t in topology}


def _destinations(topology):
    return [destination for destination, _ in topology.routing_view()]


def test_process_tc_adds_edges():
    topology = TopologySet()
    changed = topology.process_tc("mpr1", ansn=1, advertised={"a", "b"}, now=0.0, hold_time=15.0)
    assert changed
    assert topology.routing_view() == [("a", ["mpr1"]), ("b", ["mpr1"])]
    assert len(topology) == 2


def test_process_tc_older_ansn_ignored():
    topology = TopologySet()
    topology.process_tc("mpr1", ansn=5, advertised={"a"}, now=0.0, hold_time=15.0)
    changed = topology.process_tc("mpr1", ansn=3, advertised={"b"}, now=1.0, hold_time=15.0)
    assert not changed
    assert _destinations(topology) == ["a"]


def test_process_tc_newer_ansn_replaces_old_edges():
    topology = TopologySet()
    topology.process_tc("mpr1", ansn=1, advertised={"a", "b"}, now=0.0, hold_time=15.0)
    topology.process_tc("mpr1", ansn=2, advertised={"c"}, now=1.0, hold_time=15.0)
    assert _edges(topology) == {("c", "mpr1")}


def test_process_tc_same_ansn_refreshes():
    topology = TopologySet()
    topology.process_tc("mpr1", ansn=1, advertised={"a"}, now=0.0, hold_time=10.0)
    changed = topology.process_tc("mpr1", ansn=1, advertised={"a"}, now=5.0, hold_time=10.0)
    assert not changed  # nothing new, just refreshed
    assert list(topology.purge_expired(12.0)) == []  # expiry pushed to 15


def test_multiple_originators_coexist():
    topology = TopologySet()
    topology.process_tc("m1", ansn=1, advertised={"a"}, now=0.0, hold_time=15.0)
    topology.process_tc("m2", ansn=7, advertised={"a", "b"}, now=0.0, hold_time=15.0)
    assert topology.routing_view() == [("a", ["m1", "m2"]), ("b", ["m2"])]
    assert _edges(topology) == {("a", "m1"), ("a", "m2"), ("b", "m2")}


def test_topology_purge_expired():
    topology = TopologySet()
    topology.process_tc("m1", ansn=1, advertised={"a"}, now=0.0, hold_time=5.0)
    topology.process_tc("m2", ansn=1, advertised={"b"}, now=0.0, hold_time=50.0)
    expired = list(topology.purge_expired(10.0))
    assert len(expired) == 1
    assert _destinations(topology) == ["b"]


def test_topology_get_specific_tuple():
    topology = TopologySet()
    topology.process_tc("m1", ansn=4, advertised={"a"}, now=0.0, hold_time=15.0)
    assert [(t.destination_address, t.last_address, t.ansn, t.expiry_time)
            for t in topology] == [("a", "m1", 4, 15.0)]


def test_ansn_wraparound_comparison():
    assert _ansn_older(5, 10)
    assert not _ansn_older(10, 5)
    # Wrap-around: 65530 is "older" than 2 in 16-bit sequence space.
    assert _ansn_older(65530, 2) is True
    assert _ansn_older(2, 65530) is False


def _tuples(tuples):
    """Tuples as sorted values: the set iterates originator by originator."""
    return sorted((t.destination_address, t.last_address, t.ansn, t.expiry_time)
                  for t in tuples)


def test_same_ansn_refresh_keeps_the_tuple_and_pushes_its_expiry():
    topology = TopologySet()
    topology.process_tc("m1", ansn=3, advertised={"a"}, now=0.0, hold_time=10.0)
    assert _tuples(topology) == [("a", "m1", 3, 10.0)]
    topology.process_tc("m1", ansn=3, advertised={"a", "b"}, now=4.0, hold_time=10.0)
    assert _tuples(topology) == [("a", "m1", 3, 14.0), ("b", "m1", 3, 14.0)]


def test_same_ansn_with_a_different_set_purges_only_the_stale_edge():
    """A same-ANSN TC that drops a destination refreshes only the edges it
    names: the dropped edge keeps its expiry and is purged alone."""
    topology, oracle = TopologySet(), RebuildingTopologySet()
    for model in (topology, oracle):
        assert model.process_tc("m1", 3, {"a", "b"}, now=0.0, hold_time=10.0)
        assert model.process_tc("m2", 1, {"a"}, now=0.0, hold_time=20.0)
        assert not model.process_tc("m1", 3, {"a"}, now=5.0, hold_time=10.0)
    assert _tuples(topology) == _tuples(oracle) == [
        ("a", "m1", 3, 15.0), ("a", "m2", 1, 20.0), ("b", "m1", 3, 10.0)]
    version = topology.version
    assert _tuples(topology.purge_expired(12.0)) == [("b", "m1", 3, 10.0)]
    assert _tuples(oracle.purge_expired(12.0)) == [("b", "m1", 3, 10.0)]
    assert topology.version == version + 1
    assert topology.routing_view() == oracle.routing_view() == [("a", ["m1", "m2"])]
    assert list(topology.purge_expired(14.0)) == []
    assert topology.version == version + 1
    # A newer ANSN replaces the per-destination entry wholesale.
    assert topology.process_tc("m1", 4, {"c"}, now=14.0, hold_time=10.0)
    assert _tuples(topology) == [("a", "m2", 1, 20.0), ("c", "m1", 4, 24.0)]


# ------------------------------------------------- topology set vs the oracle
ORIGINATORS = ("m0", "m1", "m2")
ADDRESSES = ("a", "b", "c", "d", "m0", "m1")
# Small ANSNs, the comparison window's edge and the 16-bit wrap-around.
ANSNS = st.one_of(st.integers(0, 4), st.integers(32766, 32770),
                  st.integers(65532, 65535))
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 2.0, 7.0]),  # time step before the call
        st.one_of(
            st.tuples(st.just("tc"), st.sampled_from(ORIGINATORS), ANSNS,
                      st.frozensets(st.sampled_from(ADDRESSES)),
                      st.sampled_from([1.0, 5.0, 15.0])),
            st.tuples(st.just("purge")),
        ),
    ),
    min_size=10,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(OPERATIONS)
def test_topology_set_matches_the_rebuilding_oracle(operations):
    """Random TC sequences: same answers, versions and routing view, and
    the same tuples kept and purged (in sorted order)."""
    topology, oracle = TopologySet(), RebuildingTopologySet()
    now = 0.0
    for step, operation in operations:
        now += step
        if operation[0] == "tc":
            _, originator, ansn, advertised, hold = operation
            advertised = set(advertised)  # one object: one iteration order
            expected = oracle.process_tc(originator, ansn, advertised, now, hold)
            actual = topology.process_tc(originator, ansn, advertised, now, hold)
        else:
            expected = _tuples(oracle.purge_expired(now))
            actual = _tuples(topology.purge_expired(now))
        assert actual == expected
        assert topology.version == oracle.version
        assert _tuples(topology) == _tuples(oracle)
        assert len(topology) == len(list(oracle))
        assert topology.routing_view() == oracle.routing_view()


# ------------------------------------------------------------ duplicate set
def test_duplicate_seen_and_forwarded_tracking():
    duplicates = DuplicateSet(hold_time=30.0)
    assert ("a", 1) not in duplicates
    assert duplicates.observe("a", 1, now=0.0) is None  # first reception
    assert ("a", 1) in duplicates
    assert duplicates.observe("a", 1, now=0.0) is False  # not retransmitted
    duplicates.mark_forwarded("a", 1)
    assert duplicates.observe("a", 1, now=0.0) is True


def test_duplicate_purge_expired():
    duplicates = DuplicateSet(hold_time=10.0)
    duplicates.observe("a", 1, now=0.0)
    duplicates.observe("b", 2, now=20.0)
    expired = list(duplicates.purge_expired(15.0))
    assert len(expired) == 1
    assert ("a", 1) not in duplicates
    assert ("b", 2) in duplicates


def test_duplicate_refresh_extends_expiry():
    duplicates = DuplicateSet(hold_time=10.0)
    duplicates.observe("a", 1, now=0.0)
    duplicates.observe("a", 1, now=8.0)
    assert list(duplicates.purge_expired(15.0)) == []
    assert ("a", 1) in duplicates


def test_duplicate_hold_time_must_be_positive():
    # The expiry's sign carries the retransmitted flag, so an expiry of 0
    # could not hold it.
    for hold_time in (0.0, -1.0):
        with pytest.raises(ValueError, match="hold_time must be positive"):
            DuplicateSet(hold_time=hold_time)


def test_mark_forwarded_on_unknown_message_is_noop():
    duplicates = DuplicateSet()
    duplicates.mark_forwarded("ghost", 99)
    assert duplicates.observe("ghost", 99, now=0.0) is None


def test_purged_message_is_a_first_reception_again():
    duplicates = DuplicateSet(hold_time=10.0)
    duplicates.observe("a", 1, now=0.0)
    duplicates.mark_forwarded("a", 1)
    assert list(duplicates.purge_expired(11.0)) == [("a", 1)]
    assert duplicates.observe("a", 1, now=11.0) is None
    assert duplicates.observe("a", 1, now=11.0) is False


def test_purge_skips_only_originators_with_nothing_expired():
    """Each originator's earliest expiry, relayed entries included, decides
    whether the purge looks at it."""
    duplicates = DuplicateSet(hold_time=5.0)
    for seq, now in ((1, 0.0), (2, 3.0), (3, 6.0)):  # expiries 5, 8 and 11
        duplicates.observe("a", seq, now)
    duplicates.observe("b", 1, now=6.0)
    duplicates.mark_forwarded("a", 2)
    assert list(duplicates.purge_expired(6.0)) == [("a", 1)]
    assert list(duplicates.purge_expired(9.0)) == [("a", 2)]
    assert sorted(duplicates.purge_expired(12.0)) == [("a", 3), ("b", 1)]
    assert len(duplicates) == 0
    assert duplicates.observe("a", 2, now=12.0) is None


# ------------------------------------------------ duplicate set vs the oracle
DUPLICATE_ORIGINATORS = ("o0", "o1")
SEQS = st.integers(0, 3)
DUPLICATE_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 12.0]),  # time step before the call
        st.one_of(
            st.tuples(st.just("observe"), st.sampled_from(DUPLICATE_ORIGINATORS), SEQS),
            st.tuples(st.just("forward"), st.sampled_from(DUPLICATE_ORIGINATORS), SEQS),
            st.tuples(st.just("purge")),
        ),
    ),
    min_size=10,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1.0, 5.0, 10.0]), DUPLICATE_OPERATIONS)
def test_duplicate_set_matches_the_flat_oracle(hold_time, operations):
    """Interleaved receptions (re-receptions after a purge included),
    relays (of unknown keys too) and purges: same answers, membership and
    size, and the same purged keys as a set."""
    duplicates, oracle = DuplicateSet(hold_time), FlatDuplicateSet(hold_time)
    keys = [(o, seq) for o in DUPLICATE_ORIGINATORS for seq in range(4)]
    now = 0.0
    for step, operation in operations:
        now += step
        if operation[0] == "observe":
            _, originator, seq = operation
            actual = duplicates.observe(originator, seq, now)
            assert actual is oracle.observe(originator, seq, now)
        elif operation[0] == "forward":
            _, originator, seq = operation
            duplicates.mark_forwarded(originator, seq)
            oracle.mark_forwarded(originator, seq)
        else:
            purged = list(duplicates.purge_expired(now))
            assert len(purged) == len(set(purged))
            assert set(purged) == set(oracle.purge_expired(now))
        assert [key in duplicates for key in keys] == [key in oracle for key in keys]
        assert len(duplicates) == len(oracle)


# -------------------------------------------------------------- live bytes
def _package_bytes(build):
    """Live bytes ``build()`` leaves allocated by the package's own code."""
    package = [tracemalloc.Filter(True, os.path.join(os.path.dirname(repro.__file__), "*"))]

    def live():
        gc.collect()
        return tracemalloc.take_snapshot().filter_traces(package)

    tracemalloc.start()
    try:
        before = live()
        kept = build()
        after = live()
    finally:
        tracemalloc.stop()
    del kept
    return sum(stat.size_diff for stat in after.compare_to(before, "filename"))


def test_topology_set_bytes_grow_with_originators_not_edges():
    """200 sets each take 10 originators' TCs sharing one 20-destination
    set: the sets hold the TC's set, not an object per edge (4,842 B per
    set and originator with a tuple per edge, 106 B without, on Python
    3.11)."""
    originators = [f"o{i}" for i in range(10)]
    advertised = {f"d{i}" for i in range(20)}

    def build():
        sets = [TopologySet() for _ in range(200)]
        for topology in sets:
            for originator in originators:
                topology.process_tc(originator, 7, advertised, now=0.0, hold_time=15.0)
        return sets

    per_entry = _package_bytes(build) / (200 * len(originators))
    assert per_entry < 1024, f"{per_entry:.0f} B per (set, originator)"


def test_duplicate_set_bytes_per_forwarded_key():
    """200 sets each hold 300 forwarded keys: no tuple per key (195 B per
    key with a key tuple per entry and a second per relay, 66 B without,
    on Python 3.11)."""
    keys = [(f"o{i}", 1000 + seq) for i in range(10) for seq in range(30)]

    def build():
        sets = [DuplicateSet(hold_time=30.0) for _ in range(200)]
        for duplicates in sets:
            for originator, seq in keys:
                duplicates.observe(originator, seq, now=1.0)
                duplicates.mark_forwarded(originator, seq)
        return sets

    per_key = _package_bytes(build) / (200 * len(keys))
    assert per_key < 128, f"{per_key:.0f} B per key"
