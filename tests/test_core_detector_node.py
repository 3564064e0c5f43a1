"""End-to-end tests for the DetectorNode on the canonical simulated scenario.

These exercise the whole pipeline: OLSR message exchange, audit-log analysis
(E1/E2 triggers), Algorithm 1 over network paths that avoid the suspect, the
trust-weighted aggregate and the decision rule.
"""

from __future__ import annotations

import pytest

from repro.core.decision import DecisionOutcome
from repro.core.detector_node import DetectionConfig, DetectorNode
from repro.experiments.scenario import build_canonical_scenario
from tests.conftest import make_network


@pytest.fixture(scope="module")
def attacked_scenario():
    """The canonical scenario run well past the attack start, with detection cycles."""
    scenario = build_canonical_scenario(seed=11, attack_start=40.0)
    scenario.warm_up(35.0)
    scenario.victim.detection_round()  # consume convergence-era log records
    results = []
    for _ in range(12):
        results.extend(scenario.run_detection_cycle(10.0))
    return scenario, results


def test_detector_node_requires_transport_before_investigating():
    network = make_network({"a": (0, 0), "b": (100, 0)})
    node = DetectorNode("a", network)
    node.start()
    with pytest.raises(RuntimeError):
        node.open_investigations_from_triggers([])
    node.bind_default_transport({"a": node})
    assert node.open_investigations_from_triggers([]) == []


def test_no_attack_no_investigation():
    scenario = build_canonical_scenario(seed=11, attack_start=10_000.0)
    scenario.warm_up(35.0)
    scenario.victim.detection_round()
    results = []
    for _ in range(4):
        results.extend(scenario.run_detection_cycle(10.0))
    suspects = {r.suspect for r in results}
    # The attacker never spoofs, so it is never flagged as an intruder.
    attacker_decisions = [r for r in results if r.suspect == "attacker"]
    assert all(r.decision.outcome != DecisionOutcome.INTRUDER for r in attacker_decisions)
    assert scenario.victim.trust.trust_of("attacker") >= 0.3 or "attacker" not in suspects


def test_attack_triggers_investigation_of_attacker(attacked_scenario):
    scenario, results = attacked_scenario
    suspects = {r.suspect for r in results}
    assert "attacker" in suspects


def test_spoofed_link_endpoints_deny_and_witness_confirms(attacked_scenario):
    scenario, results = attacked_scenario
    attacker_rounds = [r for r in results if r.suspect == "attacker"]
    last = attacker_rounds[-1]
    assert last.answers.get("edge1") == -1.0
    assert last.answers.get("edge2") == -1.0


def test_detect_value_converges_toward_minus_one(attacked_scenario):
    scenario, results = attacked_scenario
    trajectory = [r.decision.detect_value for r in results if r.suspect == "attacker"]
    assert trajectory[0] <= -0.3
    assert trajectory[-1] <= trajectory[0]
    assert trajectory[-1] < -0.8


def test_final_verdict_is_intruder(attacked_scenario):
    scenario, results = attacked_scenario
    attacker_rounds = [r for r in results if r.suspect == "attacker"]
    assert attacker_rounds[-1].decision.outcome == DecisionOutcome.INTRUDER


def test_attacker_trust_collapses_at_victim(attacked_scenario):
    scenario, results = attacked_scenario
    trust = scenario.victim.trust
    assert trust.trust_of("attacker") < 0.1
    # The honest relay keeps a reasonable trust value.
    assert trust.trust_of("edge1") > trust.trust_of("attacker")


def test_innocent_relay_not_condemned(attacked_scenario):
    scenario, results = attacked_scenario
    relay_rounds = [r for r in results if r.suspect == "relay"]
    assert all(r.decision.outcome != DecisionOutcome.INTRUDER for r in relay_rounds)


def test_decision_history_and_trust_table(attacked_scenario):
    scenario, results = attacked_scenario
    victim = scenario.victim
    assert len(victim.decision_history) == len(results) + 1  # +1 pre-attack cycle round
    assert "attacker" in victim.trust_table()


def test_answer_link_query_semantics(attacked_scenario):
    scenario, _ = attacked_scenario
    relay = scenario.nodes["relay"]
    # Own-link question: relay genuinely neighbours the attacker.
    assert relay.answer_link_query("attacker", "victim") is True
    # Contested-link question about a spoofed link: edge1 does not advertise
    # the attacker, and relay neighbours edge1, so it denies.
    assert relay.answer_link_query("attacker", "victim", link_peer="edge1") is False
    # No knowledge about a contested peer that is not a neighbour.
    edge1 = scenario.nodes["edge1"]
    assert edge1.answer_link_query("attacker", "relay", link_peer="victim") is None


def test_detection_config_defaults():
    config = DetectionConfig()
    assert config.gamma == pytest.approx(0.6)
    assert config.confidence_level == pytest.approx(0.95)
    assert config.use_trust_weighting
