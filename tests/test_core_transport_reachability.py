"""Suspect-avoiding reachability: the per-query BFS oracle and the cached transport.

:class:`~repro.core.investigation.NetworkPathTransport` answers every query
from one reachable set per (connectivity mapping, requester, suspect).
These tests pin it to the reference :func:`tests.reference.path_avoiding`,
which runs one fresh BFS per query with the responder removed from the
avoided set.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.investigation import NetworkPathTransport
from tests.reference import path_avoiding


class AlwaysConfirms:
    """Responder that confirms every link it is asked about."""

    def answer_link_query(self, suspect, requester, link_peer=None):
        return True


class PerQueryPathTransport:
    """The transport as it was: one connectivity read and one BFS per query."""

    def __init__(self, connectivity_oracle, responders, loss_probability=0.0, rng=None):
        self._connectivity_oracle = connectivity_oracle
        self._responders = dict(responders)
        self.loss_probability = loss_probability
        self.rng = rng

    def verify_link(self, requester, responder, suspect, link_peer=None):
        avoid = {suspect} - {responder}
        if path_avoiding(self._connectivity_oracle(), requester, responder, avoid) is None:
            return None
        if self.loss_probability and self.rng.random() < self.loss_probability:
            return None
        target = self._responders.get(responder)
        if target is None:
            return None
        return target.answer_link_query(suspect, requester, link_peer)


# ---------------------------------------------------------------- the oracle
def test_path_avoiding_finds_detour():
    connectivity = {
        "a": ["b", "i"],
        "b": ["a", "c"],
        "c": ["b", "i"],
        "i": ["a", "c"],
    }
    path = path_avoiding(connectivity, "a", "c", avoid={"i"})
    assert path == ["a", "b", "c"]


def test_path_avoiding_returns_none_when_only_route_is_suspect():
    connectivity = {"a": ["i"], "i": ["a", "c"], "c": ["i"]}
    assert path_avoiding(connectivity, "a", "c", avoid={"i"}) is None


def test_path_avoiding_same_node():
    assert path_avoiding({}, "a", "a", avoid=set()) == ["a"]


def test_path_avoiding_target_in_avoid_set():
    assert path_avoiding({"a": ["b"]}, "a", "b", avoid={"b"}) is None


# ------------------------------------------------------- the cached transport
_NODES = [f"n{i}" for i in range(7)]
_node = st.sampled_from(_NODES)
_graph = st.dictionaries(_node, st.lists(_node, max_size=4, unique=True), max_size=7)
#: (graph index, requester, responder, suspect, link peer or None)
_query = st.tuples(st.integers(min_value=0, max_value=2), _node, _node, _node,
                   st.one_of(st.none(), _node))


@given(graph=_graph, requester=_node, suspect=_node, responder=_node)
@settings(max_examples=300, deadline=None)
def test_unreachable_exactly_when_the_reference_finds_no_path(
        graph, requester, suspect, responder):
    transport = NetworkPathTransport(lambda: graph, {n: AlwaysConfirms() for n in _NODES})
    avoid = {suspect} - {responder}
    expected_unreached = path_avoiding(graph, requester, responder, avoid) is None
    assert (transport.verify_link(requester, responder, suspect) is None) == expected_unreached


@given(graphs=st.lists(_graph, min_size=3, max_size=3),
       queries=st.lists(_query, min_size=1, max_size=40),
       seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=200, deadline=None)
def test_lossy_answers_equal_a_fresh_search_per_query(graphs, queries, seed):
    """Same answers and the same loss draws, in order, over changing graphs."""
    current = {"graph": graphs[0]}
    responders = {n: AlwaysConfirms() for n in _NODES[:-1]}  # the last never answers
    cached = NetworkPathTransport(lambda: current["graph"], responders,
                                  loss_probability=0.3, rng=random.Random(seed))
    reference = PerQueryPathTransport(lambda: current["graph"], responders,
                                      loss_probability=0.3, rng=random.Random(seed))
    for index, requester, responder, suspect, link_peer in queries:
        # A new mapping object stands for new connectivity (the oracle contract).
        current["graph"] = graphs[index]
        assert (cached.verify_link(requester, responder, suspect, link_peer=link_peer)
                == reference.verify_link(requester, responder, suspect, link_peer=link_peer))
    assert cached.rng.random() == reference.rng.random()
