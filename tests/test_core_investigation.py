"""Tests for the cooperative investigation (Algorithm 1)."""

from __future__ import annotations

import gc
import os
import random
import tracemalloc

import pytest

import repro

from repro.core.decision import ANSWER_CONFIRM, ANSWER_DENY, ANSWER_MISSING, DecisionOutcome
from repro.core.investigation import (
    CallableTransport,
    CooperativeInvestigator,
    NetworkPathTransport,
    OracleTransport,
    common_two_hop_neighbors,
)
from repro.trust.manager import TrustManager, TrustParameters


class StubResponder:
    """Responder returning a fixed answer."""

    def __init__(self, answer):
        self._answer = answer
        self.queries = []

    def answer_link_query(self, suspect, requester, link_peer=None):
        self.queries.append((suspect, requester, link_peer))
        return self._answer


def make_investigator(transport, **kwargs) -> CooperativeInvestigator:
    trust = TrustManager("inv", TrustParameters(minimum=0.05))
    return CooperativeInvestigator(
        owner="inv",
        transport=transport,
        trust_manager=trust,
        **kwargs,
    )


# ----------------------------------------------------------- helper functions
def test_common_two_hop_neighbors_intersection():
    coverage = {"suspect": {"x", "y", "z"}, "old": {"y", "z", "w"}}
    common = common_two_hop_neighbors(lambda n: coverage.get(n, set()), "suspect", ["old"])
    assert common == {"y", "z"}


def test_common_two_hop_neighbors_falls_back_to_suspect_coverage():
    coverage = {"suspect": {"x"}, "old": {"w"}}
    common = common_two_hop_neighbors(lambda n: coverage.get(n, set()), "suspect", ["old"])
    assert common == {"x"}


def test_common_two_hop_neighbors_no_replaced_mpr():
    coverage = {"suspect": {"x", "y"}}
    common = common_two_hop_neighbors(lambda n: coverage.get(n, set()), "suspect", [])
    assert common == {"x", "y"}


def test_common_two_hop_neighbors_excludes_investigator_and_suspect():
    coverage = {"suspect": {"me", "suspect", "x"}}
    common = common_two_hop_neighbors(lambda n: coverage.get(n, set()), "suspect", [],
                                      exclude={"me"})
    assert common == {"x"}


# -------------------------------------------------------------- transports
def test_oracle_transport_queries_responders():
    transport = OracleTransport({"s1": StubResponder(True), "s2": StubResponder(False)})
    assert transport.verify_link("inv", "s1", "i") is True
    assert transport.verify_link("inv", "s2", "i") is False
    assert transport.verify_link("inv", "ghost", "i") is None


def test_oracle_transport_loss():
    transport = OracleTransport({"s1": StubResponder(True)}, loss_probability=1.0,
                                rng=random.Random(0))
    assert transport.verify_link("inv", "s1", "i") is None
    with pytest.raises(ValueError):
        OracleTransport({}, loss_probability=2.0)


def test_default_transport_rngs_are_per_owner():
    # The old default seeded every transport with random.Random(0), so all
    # nodes drew the identical loss sequence; the per-owner derivation must
    # decorrelate owners while staying deterministic per owner.
    draws = {}
    for owner in ("n00", "n01"):
        transport = OracleTransport({}, owner=owner)
        repeat = OracleTransport({}, owner=owner)
        draws[owner] = [transport.rng.random() for _ in range(4)]
        assert draws[owner] == [repeat.rng.random() for _ in range(4)]
    assert draws["n00"] != draws["n01"]
    # The two transport kinds do not share sequences for the same owner either.
    network = NetworkPathTransport(lambda: {}, {}, owner="n00")
    assert [network.rng.random() for _ in range(4)] != draws["n00"]


def test_oracle_transport_passes_link_peer():
    responder = StubResponder(True)
    transport = OracleTransport({"s1": responder})
    transport.verify_link("inv", "s1", "i", link_peer="x")
    assert responder.queries[-1] == ("i", "inv", "x")


def test_callable_transport_passes_all_four_arguments():
    calls = []
    transport = CallableTransport(
        lambda req, res, sus, peer: calls.append((req, res, sus, peer)) or False)
    assert transport.verify_link("a", "b", "c", link_peer="d") is False
    assert transport.verify_link("a", "b", "c") is False
    assert calls == [("a", "b", "c", "d"), ("a", "b", "c", None)]


class ContestedLinkFails:
    """Responder whose contested-link branch raises ``TypeError``."""

    def answer_link_query(self, suspect, requester, link_peer=None):
        if link_peer is not None:
            raise TypeError("contested-link branch failed")
        return True


def test_a_responder_type_error_propagates():
    """A failing contested-link query is never answered as the own-link one."""
    responder = ContestedLinkFails()
    transports = [
        OracleTransport({"s1": responder}),
        NetworkPathTransport(lambda: {"inv": ["s1"], "s1": ["inv"]}, {"s1": responder}),
        CallableTransport(lambda req, res, sus, peer=None:
                          responder.answer_link_query(sus, req, peer)),
    ]
    for transport in transports:
        assert transport.verify_link("inv", "s1", "i") is True
        with pytest.raises(TypeError):
            transport.verify_link("inv", "s1", "i", link_peer="p")


def test_network_path_transport_avoids_suspect():
    connectivity = {"inv": ["i"], "i": ["inv", "s1"], "s1": ["i"]}
    transport = NetworkPathTransport(
        connectivity_oracle=lambda: connectivity,
        responders={"s1": StubResponder(False)},
    )
    # The only path to s1 goes through the suspect: no answer.
    assert transport.verify_link("inv", "s1", "i") is None


def test_network_path_transport_uses_detour():
    connectivity = {
        "inv": ["i", "b"],
        "i": ["inv", "s1"],
        "b": ["inv", "s1"],
        "s1": ["i", "b"],
    }
    responder = StubResponder(False)
    transport = NetworkPathTransport(
        connectivity_oracle=lambda: connectivity,
        responders={"s1": responder},
    )
    assert transport.verify_link("inv", "s1", "i") is False


# ------------------------------------------------------------- investigator
def test_open_investigation_and_round_all_denials():
    transport = OracleTransport({f"s{i}": StubResponder(False) for i in range(6)})
    investigator = make_investigator(transport)
    investigator.open_investigation("i", [f"s{i}" for i in range(6)])
    result = investigator.run_round("i")
    assert result.decision.detect_value == pytest.approx(-1.0)
    assert set(result.answers.values()) == {ANSWER_DENY}
    assert result.responders_unreached == []


def test_round_records_missing_answers():
    responders = {"s0": StubResponder(False), "s1": StubResponder(None)}
    investigator = make_investigator(OracleTransport(responders))
    investigator.open_investigation("i", ["s0", "s1"])
    result = investigator.run_round("i")
    assert result.answers["s1"] == ANSWER_MISSING
    assert "s1" in result.responders_unreached


def test_round_requires_open_investigation():
    investigator = make_investigator(OracleTransport({}))
    with pytest.raises(KeyError):
        investigator.run_round("nobody")


def test_open_investigation_merges_responders():
    investigator = make_investigator(OracleTransport({}))
    investigator.open_investigation("i", ["a"])
    state = investigator.open_investigation("i", ["b"])
    assert state.responders == ["a", "b"]


def test_empty_responder_set_marks_unverified():
    investigator = make_investigator(OracleTransport({}))
    state = investigator.open_investigation("i", [])
    assert state.unverified


def test_trust_updates_after_round():
    responders = {f"h{i}": StubResponder(False) for i in range(4)}
    responders["liar"] = StubResponder(True)
    investigator = make_investigator(OracleTransport(responders))
    trust = investigator.trust
    investigator.open_investigation("i", list(responders))
    before_liar = trust.trust_of("liar")
    before_honest = trust.trust_of("h0")
    before_suspect = trust.trust_of("i")
    investigator.run_round("i")
    assert trust.trust_of("liar") < before_liar
    assert trust.trust_of("h0") >= before_honest
    assert trust.trust_of("i") < before_suspect


def test_repeated_rounds_converge_and_track_trajectory():
    responders = {f"h{i}": StubResponder(False) for i in range(10)}
    responders.update({f"l{i}": StubResponder(True) for i in range(4)})
    investigator = make_investigator(OracleTransport(responders))
    investigator.open_investigation("i", list(responders))
    results = [investigator.run_round("i") for _ in range(15)]
    assert [r.round_index for r in results] == list(range(15))
    assert investigator.state_of("i").round_count == 15
    trajectory = [r.decision.detect_value for r in results]
    assert trajectory[-1] < trajectory[0]
    assert trajectory[-1] < -0.8
    answers = results[-1].answers
    assert {n for n, a in answers.items() if a == ANSWER_DENY} == {f"h{i}" for i in range(10)}
    assert {n for n, a in answers.items() if a == ANSWER_CONFIRM} == {f"l{i}" for i in range(4)}


def test_investigator_memory_does_not_grow_with_rounds():
    """Rounds 50 to 500 leave the investigator's live memory where it was:
    its state grows with the responders, not with the rounds run."""
    responders = {f"h{i}": StubResponder(False) for i in range(10)}
    responders.update({f"l{i}": StubResponder(True) for i in range(4)})
    investigator = make_investigator(OracleTransport(responders))
    investigator.open_investigation("i", list(responders))
    # Only the package's own allocations count (the stubs log every query).
    package = [tracemalloc.Filter(True, os.path.join(os.path.dirname(repro.__file__), "*"))]

    def live_snapshot():
        gc.collect()
        return tracemalloc.take_snapshot().filter_traces(package)

    tracemalloc.start()
    try:
        for round_index in range(500):
            investigator.run_round("i")
            if round_index == 49:
                after_50 = live_snapshot()
        after_500 = live_snapshot()
    finally:
        tracemalloc.stop()
    growth = sum(stat.size_diff for stat in after_500.compare_to(after_50, "filename"))
    assert growth < 16 * 1024


def test_close_on_decision_terminates_investigation():
    responders = {f"s{i}": StubResponder(False) for i in range(8)}
    investigator = make_investigator(OracleTransport(responders), close_on_decision=True)
    investigator.open_investigation("i", list(responders))
    result = investigator.run_round("i")
    assert result.decision.outcome == DecisionOutcome.INTRUDER
    state = investigator.state_of("i")
    assert state.closed
    assert state.final_outcome == DecisionOutcome.INTRUDER
    with pytest.raises(RuntimeError):
        investigator.run_round("i")


def test_manual_close_returns_last_outcome():
    responders = {"s0": StubResponder(False)}
    investigator = make_investigator(OracleTransport(responders))
    investigator.open_investigation("i", ["s0"])
    investigator.run_round("i")
    outcome = investigator.close("i")
    assert outcome is not None
    assert investigator.close("unknown") is None
    assert "i" not in investigator.open_investigations()


def test_contested_link_mode_single_denial_is_damning():
    class PerLinkResponder:
        def answer_link_query(self, suspect, requester, link_peer=None):
            if link_peer == "spoofed":
                return False
            if link_peer == "genuine":
                return True
            return None

    transport = OracleTransport({"w": PerLinkResponder()})
    investigator = make_investigator(transport)
    investigator.open_investigation("i", ["w"], contested_links=["genuine", "spoofed"])
    result = investigator.run_round("i")
    assert result.answers["w"] == ANSWER_DENY


def test_contested_link_mode_no_knowledge_is_missing():
    transport = OracleTransport({"w": StubResponder(None)})
    investigator = make_investigator(transport)
    investigator.open_investigation("i", ["w"], contested_links=["x"])
    result = investigator.run_round("i")
    assert result.answers["w"] == ANSWER_MISSING


def test_contested_link_mode_confirm_only_is_confirm():
    transport = OracleTransport({"w": StubResponder(True)})
    investigator = make_investigator(transport)
    investigator.open_investigation("i", ["w"], contested_links=["x", "y"])
    result = investigator.run_round("i")
    assert result.answers["w"] == ANSWER_CONFIRM


def test_open_investigation_merges_contested_links_and_drops_suspect():
    investigator = make_investigator(OracleTransport({}))
    investigator.open_investigation("i", ["a"], contested_links=["x"])
    state = investigator.open_investigation("i", ["a"], contested_links=["y", "i"])
    assert state.contested_links == ["x", "y"]
