"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision import aggregate_detection, decide, DecisionOutcome
from repro.olsr.mpr import mpr_coverage_complete, select_mprs
from repro.trust.confidence import margin_of_error, weighted_margin
from repro.trust.entropy import binary_entropy, entropy_trust_from_probability
from repro.trust.evidence import EvidenceKind, TrustEvidence
from repro.trust.manager import TrustManager, TrustParameters


# ----------------------------------------------------------------------- MPR
_node_names = st.sampled_from([f"n{i}" for i in range(8)])
_two_hop_names = st.sampled_from([f"t{i}" for i in range(10)])


@given(
    coverage=st.dictionaries(
        _node_names, st.sets(_two_hop_names, max_size=6), min_size=1, max_size=8
    )
)
@settings(max_examples=200)
def test_mpr_selection_always_covers_reachable_two_hop_set(coverage):
    symmetric = set(coverage)
    result = select_mprs(symmetric_neighbors=symmetric, coverage=coverage,
                         local_address="me")
    two_hop = set().union(*coverage.values()) - symmetric - {"me"} if coverage else set()
    reachable = two_hop - result.uncovered
    assert mpr_coverage_complete(result.mprs, coverage, reachable)
    assert result.mprs <= symmetric
    assert result.uncovered == set()  # every 2-hop node has a provider here


# --------------------------------------------------------------------- trust
@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_entropy_trust_bounds_and_sign(p):
    trust = entropy_trust_from_probability(p)
    assert -1.0 <= trust <= 1.0
    if p > 0.5:
        assert trust >= 0.0
    elif p < 0.5:
        assert trust <= 0.0


@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_bounds(p):
    assert 0.0 <= binary_entropy(p) <= 1.0 + 1e-12


@given(
    initial=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    values=st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                    min_size=0, max_size=20),
)
@settings(max_examples=200)
def test_trust_manager_always_within_bounds(initial, values):
    manager = TrustManager("me", TrustParameters())
    manager.set_initial_trust("x", initial)
    for value in values:
        kind = EvidenceKind.CORRECT_ANSWER if value >= 0 else EvidenceKind.INCORRECT_ANSWER
        evidences = []
        if value != 0.0:
            evidences.append(TrustEvidence("me", "x", kind, value=value))
        manager.update("x", evidences)
        assert 0.0 <= manager.trust_of("x") <= 1.0


# ---------------------------------------------------------------- confidence
@given(samples=st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                        min_size=0, max_size=30),
       level=st.sampled_from([0.80, 0.90, 0.95, 0.99]))
def test_margin_of_error_non_negative_and_finite(samples, level):
    margin = margin_of_error(samples, level)
    assert margin >= 0.0
    assert math.isfinite(margin)


@given(
    data=st.lists(
        st.tuples(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                  st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        min_size=1, max_size=20,
    )
)
def test_weighted_margin_non_negative(data):
    samples = [s for s, _ in data]
    weights = [w for _, w in data]
    margin = weighted_margin(samples, weights, sum(weights), 0.95)
    assert margin >= 0.0
    assert math.isfinite(margin)


# ------------------------------------------------------------------ decision
_answers = st.dictionaries(
    st.sampled_from([f"s{i}" for i in range(10)]),
    st.sampled_from([-1.0, 0.0, 1.0]),
    min_size=1, max_size=10,
)
_trust_values = st.dictionaries(
    st.sampled_from([f"s{i}" for i in range(10)]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    max_size=10,
)


@given(answers=_answers, trust=_trust_values)
@settings(max_examples=300)
def test_aggregate_detection_bounded(answers, trust):
    value = aggregate_detection(answers, trust)
    assert -1.0 <= value <= 1.0


@given(answers=_answers, trust=_trust_values)
def test_aggregate_sign_matches_unanimous_answers(answers, trust):
    values = set(answers.values())
    aggregate = aggregate_detection(answers, trust)
    if values == {1.0}:
        assert aggregate >= 0.0
    if values == {-1.0}:
        assert aggregate <= 0.0


@given(
    detect=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    margin=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    gamma=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
@settings(max_examples=300)
def test_decision_rule_is_exhaustive_and_exclusive(detect, margin, gamma):
    outcome = decide(detect, margin, gamma=gamma)
    assert outcome in (DecisionOutcome.WELL_BEHAVING, DecisionOutcome.INTRUDER,
                       DecisionOutcome.UNRECOGNIZED)
    # The two conclusive outcomes are mutually exclusive.
    well = gamma <= detect - margin <= 1.0
    intruder = -1.0 <= detect + margin <= -gamma
    assert not (well and intruder)
    if well:
        assert outcome == DecisionOutcome.WELL_BEHAVING
    elif intruder:
        assert outcome == DecisionOutcome.INTRUDER
    else:
        assert outcome == DecisionOutcome.UNRECOGNIZED


@given(
    detect=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    gamma=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
def test_larger_margin_never_creates_a_conclusive_outcome(detect, gamma):
    tight = decide(detect, 0.0, gamma=gamma)
    wide = decide(detect, 1.5, gamma=gamma)
    if tight == DecisionOutcome.UNRECOGNIZED:
        assert wide == DecisionOutcome.UNRECOGNIZED
