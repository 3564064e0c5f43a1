"""Tests for the detection aggregate (Eq. 8) and the decision rule (Eq. 10)."""

from __future__ import annotations

import pytest

from repro.core.decision import (
    ANSWER_CONFIRM,
    ANSWER_DENY,
    ANSWER_MISSING,
    DecisionOutcome,
    aggregate_detection,
    decide,
    evaluate_investigation,
    unweighted_vote,
)
from repro.core.evidence import EvidenceType, e1, e2, e3


# ----------------------------------------------------------------- evidences
def test_evidence_builders():
    built = [e1("a", "i", 1.0, replaced="m"), e2("a", "i", 1.0, reason="drop"),
             e3("a", "i", 1.0, isolated_node="x")]
    assert [evidence.evidence_type for evidence in built] == [
        EvidenceType.E1_MPR_REPLACED, EvidenceType.E2_MPR_MISBEHAVIOR,
        EvidenceType.E3_SOLE_PROVIDER]
    assert [evidence.details for evidence in built] == [
        {"replaced": "m"}, {"reason": "drop"}, {"isolated_node": "x"}]
    assert {(e.observer, e.suspect, e.time) for e in built} == {("a", "i", 1.0)}


# ---------------------------------------------------------------- weights
def test_detection_weights_normalisation():
    # Eq. 8 weighs each answer by the responder's trust over the total
    # trust, so scaling every trust value by one factor changes nothing.
    answers = {"s0": ANSWER_DENY, "s1": ANSWER_CONFIRM}
    assert aggregate_detection(answers, {"s0": 0.1, "s1": 0.3}) == pytest.approx(0.5)
    assert aggregate_detection(answers, {"s0": 0.2, "s1": 0.6}) == pytest.approx(0.5)
    assert aggregate_detection({"s0": ANSWER_DENY, "s1": ANSWER_DENY},
                               {"s0": 0.5, "s1": 0.5}) == pytest.approx(-1.0)
    assert aggregate_detection(answers, {"s0": 0.0, "s1": 0.0}) == 0.0
    assert aggregate_detection({}, {}) == 0.0


def test_detection_weights_subnormal_total_is_zero_trust():
    # 1/total overflows to inf for subnormal totals; such trust is
    # indistinguishable from zero and must not poison the aggregate with NaN.
    subnormal = 2.225073858507203e-309
    value = aggregate_detection({"s0": -1.0, "s1": -1.0}, {"s0": subnormal})
    assert value == 0.0


# ---------------------------------------------------------------- Eq. 8
def test_aggregate_all_deny_equal_trust_is_minus_one():
    answers = {f"s{i}": ANSWER_DENY for i in range(5)}
    trust = {f"s{i}": 0.4 for i in range(5)}
    assert aggregate_detection(answers, trust) == pytest.approx(-1.0)


def test_aggregate_all_confirm_equal_trust_is_plus_one():
    answers = {f"s{i}": ANSWER_CONFIRM for i in range(5)}
    trust = {f"s{i}": 0.4 for i in range(5)}
    assert aggregate_detection(answers, trust) == pytest.approx(1.0)


def test_aggregate_missing_answers_count_zero():
    answers = {"s1": ANSWER_DENY, "s2": ANSWER_MISSING}
    trust = {"s1": 0.5, "s2": 0.5}
    assert aggregate_detection(answers, trust) == pytest.approx(-0.5)


def test_aggregate_is_trust_weighted():
    answers = {"honest": ANSWER_DENY, "liar": ANSWER_CONFIRM}
    balanced = aggregate_detection(answers, {"honest": 0.5, "liar": 0.5})
    skewed = aggregate_detection(answers, {"honest": 0.9, "liar": 0.1})
    assert balanced == pytest.approx(0.0)
    assert skewed < -0.5


def test_aggregate_unknown_responder_trust_defaults_to_zero():
    answers = {"s1": ANSWER_DENY, "stranger": ANSWER_CONFIRM}
    assert aggregate_detection(answers, {"s1": 0.5}) == pytest.approx(-1.0)


def test_aggregate_negative_trust_clamped_to_zero_weight():
    answers = {"s1": ANSWER_DENY, "weird": ANSWER_CONFIRM}
    result = aggregate_detection(answers, {"s1": 0.5, "weird": -0.5})
    assert result == pytest.approx(-1.0)


def test_aggregate_rejects_out_of_range_answers():
    with pytest.raises(ValueError):
        aggregate_detection({"s1": 2.0}, {"s1": 0.5})


def test_aggregate_zero_total_trust_is_zero():
    answers = {"s1": ANSWER_DENY}
    assert aggregate_detection(answers, {"s1": 0.0}) == 0.0


def test_unweighted_vote_mean():
    assert unweighted_vote({"a": 1.0, "b": -1.0, "c": -1.0}) == pytest.approx(-1 / 3)
    assert unweighted_vote({}) == 0.0


# ---------------------------------------------------------------- Eq. 10
def test_decide_well_behaving():
    assert decide(0.9, margin=0.1, gamma=0.6) == DecisionOutcome.WELL_BEHAVING


def test_decide_intruder():
    assert decide(-0.9, margin=0.1, gamma=0.6) == DecisionOutcome.INTRUDER


def test_decide_unrecognized_when_interval_straddles_gamma():
    assert decide(-0.7, margin=0.3, gamma=0.6) == DecisionOutcome.UNRECOGNIZED
    assert decide(0.7, margin=0.3, gamma=0.6) == DecisionOutcome.UNRECOGNIZED
    assert decide(0.0, margin=0.0, gamma=0.6) == DecisionOutcome.UNRECOGNIZED


def test_decide_gamma_validation():
    with pytest.raises(ValueError):
        decide(0.5, 0.1, gamma=0.0)
    with pytest.raises(ValueError):
        decide(0.5, 0.1, gamma=1.5)


def test_wider_margin_requires_stronger_detect():
    assert decide(-0.7, margin=0.05, gamma=0.6) == DecisionOutcome.INTRUDER
    assert decide(-0.7, margin=0.2, gamma=0.6) == DecisionOutcome.UNRECOGNIZED


# ------------------------------------------------------ evaluate_investigation
def test_evaluate_investigation_intruder_case():
    answers = {f"s{i}": ANSWER_DENY for i in range(10)}
    trust = {f"s{i}": 0.5 for i in range(10)}
    decision = evaluate_investigation("i", answers, trust, gamma=0.6)
    assert decision.outcome == DecisionOutcome.INTRUDER
    assert decision.detect_value == pytest.approx(-1.0)
    assert decision.is_final
    assert decision.suspect == "i"


def test_evaluate_investigation_well_behaving_case():
    answers = {f"s{i}": ANSWER_CONFIRM for i in range(10)}
    trust = {f"s{i}": 0.5 for i in range(10)}
    decision = evaluate_investigation("i", answers, trust, gamma=0.6)
    assert decision.outcome == DecisionOutcome.WELL_BEHAVING


def test_evaluate_investigation_mixed_low_trust_liars_still_concludes():
    answers = {f"h{i}": ANSWER_DENY for i in range(10)}
    answers.update({f"l{i}": ANSWER_CONFIRM for i in range(4)})
    trust = {f"h{i}": 0.6 for i in range(10)}
    trust.update({f"l{i}": 0.02 for i in range(4)})
    decision = evaluate_investigation("i", answers, trust, gamma=0.6)
    assert decision.detect_value < -0.8
    assert decision.outcome == DecisionOutcome.INTRUDER


def test_evaluate_investigation_mixed_equal_trust_is_unrecognized():
    answers = {"h1": ANSWER_DENY, "h2": ANSWER_DENY, "l1": ANSWER_CONFIRM, "l2": ANSWER_CONFIRM}
    trust = {k: 0.4 for k in answers}
    decision = evaluate_investigation("i", answers, trust, gamma=0.6)
    assert decision.outcome == DecisionOutcome.UNRECOGNIZED
    assert not decision.is_final


def test_evaluate_investigation_unweighted_mode():
    answers = {"h1": ANSWER_DENY, "h2": ANSWER_DENY, "l1": ANSWER_CONFIRM}
    trust = {"h1": 0.9, "h2": 0.9, "l1": 0.0}
    weighted = evaluate_investigation("i", answers, trust, use_trust_weighting=True)
    unweighted = evaluate_investigation("i", answers, trust, use_trust_weighting=False)
    assert weighted.detect_value < unweighted.detect_value
    assert unweighted.detect_value == pytest.approx(-1 / 3)


def test_unweighted_mode_rejects_the_answers_the_weighted_mode_rejects():
    answers = {"a": 2.0, "b": 1.0}
    trust = {"a": 0.5, "b": 0.5}
    for weighting in (True, False):
        with pytest.raises(ValueError, match="answer of a out of range: 2.0"):
            evaluate_investigation("i", answers, trust, use_trust_weighting=weighting)
    with pytest.raises(ValueError, match="answer of b out of range: -1.5"):
        unweighted_vote({"a": 1.0, "b": -1.5})
    with pytest.raises(ValueError):
        unweighted_vote({"a": float("nan")})


def test_evaluate_investigation_records_inputs():
    answers = {"s1": ANSWER_DENY}
    trust = {"s1": 0.5}
    decision = evaluate_investigation("i", answers, trust)
    assert decision.answers == answers
    assert decision.trust_used == {"s1": 0.5}
    assert decision.interval.sample_size == 1
