"""Tests for the topology set (TC processing) and the duplicate set."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.olsr.duplicate import DuplicateSet
from repro.olsr.topology import TopologySet, _ansn_older
from tests.reference import RebuildingTopologySet


def test_process_tc_adds_edges():
    topology = TopologySet()
    changed = topology.process_tc("mpr1", ansn=1, advertised={"a", "b"}, now=0.0, hold_time=15.0)
    assert changed
    assert topology.destinations() == {"a", "b"}
    assert topology.last_hops_for("a") == {"mpr1"}
    assert topology.advertised_by("mpr1") == {"a", "b"}
    assert len(topology) == 2


def test_process_tc_older_ansn_ignored():
    topology = TopologySet()
    topology.process_tc("mpr1", ansn=5, advertised={"a"}, now=0.0, hold_time=15.0)
    changed = topology.process_tc("mpr1", ansn=3, advertised={"b"}, now=1.0, hold_time=15.0)
    assert not changed
    assert topology.destinations() == {"a"}


def test_process_tc_newer_ansn_replaces_old_edges():
    topology = TopologySet()
    topology.process_tc("mpr1", ansn=1, advertised={"a", "b"}, now=0.0, hold_time=15.0)
    topology.process_tc("mpr1", ansn=2, advertised={"c"}, now=1.0, hold_time=15.0)
    assert topology.advertised_by("mpr1") == {"c"}


def test_process_tc_same_ansn_refreshes():
    topology = TopologySet()
    topology.process_tc("mpr1", ansn=1, advertised={"a"}, now=0.0, hold_time=10.0)
    changed = topology.process_tc("mpr1", ansn=1, advertised={"a"}, now=5.0, hold_time=10.0)
    assert not changed  # nothing new, just refreshed
    assert topology.purge_expired(12.0) == []  # expiry pushed to 15


def test_multiple_originators_coexist():
    topology = TopologySet()
    topology.process_tc("m1", ansn=1, advertised={"a"}, now=0.0, hold_time=15.0)
    topology.process_tc("m2", ansn=7, advertised={"a", "b"}, now=0.0, hold_time=15.0)
    assert topology.last_hops_for("a") == {"m1", "m2"}
    assert set(topology.edges()) == {("m1", "a"), ("m2", "a"), ("m2", "b")}


def test_remove_for_originator():
    topology = TopologySet()
    topology.process_tc("m1", ansn=1, advertised={"a"}, now=0.0, hold_time=15.0)
    topology.process_tc("m2", ansn=1, advertised={"b"}, now=0.0, hold_time=15.0)
    topology.remove_for_originator("m1")
    assert topology.destinations() == {"b"}


def test_topology_purge_expired():
    topology = TopologySet()
    topology.process_tc("m1", ansn=1, advertised={"a"}, now=0.0, hold_time=5.0)
    topology.process_tc("m2", ansn=1, advertised={"b"}, now=0.0, hold_time=50.0)
    expired = topology.purge_expired(10.0)
    assert len(expired) == 1
    assert topology.destinations() == {"b"}


def test_topology_get_specific_tuple():
    topology = TopologySet()
    topology.process_tc("m1", ansn=4, advertised={"a"}, now=0.0, hold_time=15.0)
    record = topology.get("a", "m1")
    assert record is not None and record.ansn == 4
    assert topology.get("a", "ghost") is None


def test_ansn_wraparound_comparison():
    assert _ansn_older(5, 10)
    assert not _ansn_older(10, 5)
    # Wrap-around: 65530 is "older" than 2 in 16-bit sequence space.
    assert _ansn_older(65530, 2) is True
    assert _ansn_older(2, 65530) is False


def test_same_ansn_refresh_keeps_the_tuple_and_pushes_its_expiry():
    topology = TopologySet()
    topology.process_tc("m1", ansn=3, advertised={"a"}, now=0.0, hold_time=10.0)
    record = topology.get("a", "m1")
    topology.process_tc("m1", ansn=3, advertised={"a", "b"}, now=4.0, hold_time=10.0)
    assert topology.get("a", "m1") is record
    assert (record.ansn, record.expiry_time) == (3, 14.0)


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
            st.tuples(st.just("remove"), st.sampled_from(ORIGINATORS)),
        ),
    ),
    max_size=40,
)


def _tuples(topology):
    return [(t.destination_address, t.last_address, t.ansn, t.expiry_time)
            for t in topology]


@settings(max_examples=300, deadline=None)
@given(OPERATIONS)
def test_topology_set_matches_the_rebuilding_oracle(operations):
    """Random TC sequences: same answers, tuples, versions and routing view."""
    topology, oracle = TopologySet(), RebuildingTopologySet()
    now = 0.0
    for step, operation in operations:
        now += step
        if operation[0] == "tc":
            _, originator, ansn, advertised, hold = operation
            advertised = set(advertised)  # one object: one iteration order
            expected = oracle.process_tc(originator, ansn, advertised, now, hold)
            actual = topology.process_tc(originator, ansn, advertised, now, hold)
        elif operation[0] == "purge":
            expected = _tuples(oracle.purge_expired(now))
            actual = _tuples(topology.purge_expired(now))
        else:
            expected = oracle.remove_for_originator(operation[1])
            actual = topology.remove_for_originator(operation[1])
        assert actual == expected
        assert topology.version == oracle.version
        assert _tuples(topology) == _tuples(oracle)
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
    expired = duplicates.purge_expired(15.0)
    assert len(expired) == 1
    assert ("a", 1) not in duplicates
    assert ("b", 2) in duplicates


def test_duplicate_refresh_extends_expiry():
    duplicates = DuplicateSet(hold_time=10.0)
    duplicates.observe("a", 1, now=0.0)
    duplicates.observe("a", 1, now=8.0)
    assert duplicates.purge_expired(15.0) == []
    assert ("a", 1) in duplicates


def test_mark_forwarded_on_unknown_message_is_noop():
    duplicates = DuplicateSet()
    duplicates.mark_forwarded("ghost", 99)
    assert duplicates.observe("ghost", 99, now=0.0) is None


def test_purged_message_is_a_first_reception_again():
    duplicates = DuplicateSet(hold_time=10.0)
    duplicates.observe("a", 1, now=0.0)
    duplicates.mark_forwarded("a", 1)
    assert duplicates.purge_expired(11.0) == [("a", 1)]
    assert duplicates.observe("a", 1, now=11.0) is None
    assert duplicates.observe("a", 1, now=11.0) is False
