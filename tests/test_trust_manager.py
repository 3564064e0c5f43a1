"""Tests for the direct-trust manager (Eq. 5)."""

from __future__ import annotations

import pytest

from repro.trust.evidence import EvidenceKind, beneficial, harmful
from repro.trust.manager import TrustManager, TrustParameters


def make_manager(**overrides) -> TrustManager:
    params = TrustParameters(**overrides) if overrides else TrustParameters()
    return TrustManager("observer", params)


def test_unknown_subject_has_default_trust():
    manager = make_manager(default_trust=0.4)
    assert manager.trust_of("stranger") == pytest.approx(0.4)


def test_set_initial_trust_clamped():
    manager = make_manager(minimum=0.0, maximum=1.0)
    manager.set_initial_trust("a", 5.0)
    assert manager.trust_of("a") == 1.0
    manager.set_initial_trust("b", -5.0)
    assert manager.trust_of("b") == 0.0


def test_parameters_validation():
    with pytest.raises(ValueError):
        TrustParameters(beta=1.5).validate()
    with pytest.raises(ValueError):
        TrustParameters(minimum=0.9, maximum=0.1).validate()
    with pytest.raises(ValueError):
        TrustParameters(default_trust=2.0).validate()
    with pytest.raises(ValueError):
        TrustParameters(alpha_beneficial=-1.0).validate()
    with pytest.raises(ValueError):
        TrustParameters(beta_recovery=2.0).validate()


@pytest.mark.parametrize("name", ["alpha_beneficial", "alpha_harmful", "beta",
                                  "default_trust", "minimum", "maximum",
                                  "beta_recovery"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_parameters_must_be_finite(name, value):
    # A comparison with NaN is false, so a range check alone lets it in.
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        TrustParameters(**{name: value}).validate()
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TrustManager("observer", TrustParameters(**{name: value}))


def test_harmful_evidence_decreases_trust():
    manager = make_manager()
    manager.set_initial_trust("liar", 0.7)
    evidence = harmful("observer", "liar", EvidenceKind.INCORRECT_ANSWER)
    new_value = manager.update("liar", [evidence])
    assert new_value < 0.7


def test_beneficial_evidence_increases_trust():
    manager = make_manager()
    manager.set_initial_trust("good", 0.4)
    evidence = beneficial("observer", "good", EvidenceKind.CORRECT_ANSWER)
    new_value = manager.update("good", [evidence])
    assert new_value > 0.4


def test_defensive_asymmetry_harm_outweighs_benefit():
    manager = make_manager()
    manager.set_initial_trust("a", 0.5)
    manager.set_initial_trust("b", 0.5)
    drop = 0.5 - manager.update(
        "a", [harmful("observer", "a", EvidenceKind.INCORRECT_ANSWER)])
    gain = manager.update(
        "b", [beneficial("observer", "b", EvidenceKind.CORRECT_ANSWER)]) - 0.5
    assert drop > gain


def test_trust_clamped_to_bounds():
    manager = make_manager(minimum=0.0, maximum=1.0)
    manager.set_initial_trust("liar", 0.1)
    for _ in range(50):
        manager.update("liar", [harmful("observer", "liar", EvidenceKind.LINK_SPOOFING)])
    assert manager.trust_of("liar") == 0.0
    manager.set_initial_trust("saint", 0.9)
    for _ in range(200):
        manager.update("saint", [beneficial("observer", "saint", EvidenceKind.CORRECT_ANSWER)])
    assert manager.trust_of("saint") <= 1.0


def test_no_evidence_decays_toward_default_from_above():
    manager = make_manager(default_trust=0.4, beta=0.9)
    manager.set_initial_trust("a", 0.9)
    for _ in range(100):
        manager.update("a", [])
    assert manager.trust_of("a") == pytest.approx(0.4, abs=0.02)


def test_no_evidence_recovers_toward_default_from_below():
    manager = make_manager(default_trust=0.4, beta=0.9)
    manager.set_initial_trust("a", 0.0)
    for _ in range(100):
        manager.update("a", [])
    assert manager.trust_of("a") == pytest.approx(0.4, abs=0.02)


def test_beta_recovery_slows_upward_recovery_only():
    fast = make_manager(default_trust=0.4, beta=0.9, beta_recovery=None)
    slow = make_manager(default_trust=0.4, beta=0.9, beta_recovery=0.99)
    fast.set_initial_trust("former-liar", 0.0)
    slow.set_initial_trust("former-liar", 0.0)
    fast.set_initial_trust("trusted", 0.9)
    slow.set_initial_trust("trusted", 0.9)
    for _ in range(10):
        fast.decay_all()
        slow.decay_all()
    assert slow.trust_of("former-liar") < fast.trust_of("former-liar")
    # Decay from above the default is unaffected by beta_recovery.
    assert slow.trust_of("trusted") == pytest.approx(fast.trust_of("trusted"))


def test_update_ignores_evidence_about_other_subjects():
    manager = make_manager()
    manager.set_initial_trust("a", 0.4)
    foreign = harmful("observer", "someone-else", EvidenceKind.INCORRECT_ANSWER)
    value = manager.update("a", [foreign])
    # Treated as a no-evidence slot: stays at/near the default.
    assert value == pytest.approx(0.4, abs=0.01)


def test_update_all_applies_forgetting_to_missing_subjects():
    manager = make_manager()
    manager.set_initial_trust("quiet", 0.9)
    manager.set_initial_trust("active", 0.4)
    evidence = beneficial("observer", "active", EvidenceKind.CORRECT_ANSWER)
    results = manager.update_all(
        {"active": evidence.weighted(manager.parameters.alpha_for(evidence.value))})
    assert results["active"] > 0.4
    assert results["quiet"] < 0.9  # forgetting pulled it toward the default


def test_known_subjects_and_as_dict():
    manager = make_manager()
    manager.set_initial_trust("b", 0.2)
    manager.set_initial_trust("a", 0.6)
    assert manager.known_subjects() == ["a", "b"]
    snapshot = manager.as_dict()
    assert snapshot == {"a": 0.6, "b": 0.2}
