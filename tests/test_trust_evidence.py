"""Tests for trust evidences (Properties 1–5 encoding)."""

from __future__ import annotations

import pytest

from repro.trust.evidence import (
    DEFAULT_GRAVITY,
    EvidenceKind,
    HARMFUL_KINDS,
    TrustEvidence,
    beneficial,
    harmful,
)


def test_value_range_validated():
    with pytest.raises(ValueError):
        TrustEvidence("a", "b", EvidenceKind.CORRECT_ANSWER, value=1.5)
    with pytest.raises(ValueError):
        TrustEvidence("a", "b", EvidenceKind.CORRECT_ANSWER, value=-2.0)


def test_property1_sign_encodes_harmfulness():
    good = beneficial("a", "b", EvidenceKind.CORRECT_ANSWER)
    bad = harmful("a", "b", EvidenceKind.INCORRECT_ANSWER)
    assert good.value > 0.0
    assert bad.value < 0.0


def test_beneficial_and_harmful_constructors_validate_sign():
    with pytest.raises(ValueError):
        beneficial("a", "b", EvidenceKind.CORRECT_ANSWER, value=-1.0)
    with pytest.raises(ValueError):
        harmful("a", "b", EvidenceKind.INCORRECT_ANSWER, value=1.0)


def test_property2_gravity_defaults_per_kind():
    spoof = harmful("a", "b", EvidenceKind.LINK_SPOOFING)
    answer = harmful("a", "b", EvidenceKind.INCORRECT_ANSWER)
    assert spoof.effective_gravity > answer.effective_gravity
    assert spoof.effective_gravity == DEFAULT_GRAVITY[EvidenceKind.LINK_SPOOFING]


def test_explicit_gravity_overrides_default():
    evidence = TrustEvidence("a", "b", EvidenceKind.CORRECT_ANSWER, value=1.0, gravity=3.0)
    assert evidence.effective_gravity == 3.0


def test_property3_imminence_doubles_harmful_weight():
    plain = harmful("a", "b", EvidenceKind.LINK_SPOOFING)
    imminent = harmful("a", "b", EvidenceKind.LINK_SPOOFING, imminent=True)
    assert imminent.weighted(0.1) == pytest.approx(2.0 * plain.weighted(0.1))


def test_imminence_does_not_boost_beneficial_evidence():
    plain = beneficial("a", "b", EvidenceKind.CORRECT_ANSWER)
    boosted = TrustEvidence("a", "b", EvidenceKind.CORRECT_ANSWER, value=1.0, imminent=True)
    assert boosted.weighted(0.1) == pytest.approx(plain.weighted(0.1))


def test_property5_second_hand_weighs_half():
    first = beneficial("a", "b", EvidenceKind.CORRECT_ANSWER, firsthand=True)
    second = beneficial("a", "b", EvidenceKind.CORRECT_ANSWER, firsthand=False)
    assert second.weighted(0.1) == pytest.approx(0.5 * first.weighted(0.1))


def test_weighted_sign_follows_value():
    good = beneficial("a", "b", EvidenceKind.CORRECT_ANSWER)
    bad = harmful("a", "b", EvidenceKind.INCORRECT_ANSWER)
    assert good.weighted(0.1) > 0
    assert bad.weighted(0.1) < 0


def test_harmful_kinds_constant_covers_negative_kinds():
    assert EvidenceKind.LINK_SPOOFING in HARMFUL_KINDS
    assert EvidenceKind.CORRECT_ANSWER not in HARMFUL_KINDS


def test_kind_string_representation():
    assert str(EvidenceKind.LINK_SPOOFING) == "LINK_SPOOFING"
