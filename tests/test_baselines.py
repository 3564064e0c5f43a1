"""Tests for the re-implemented baselines (Watchdog, CAP-OLSR, Beta, averaging)."""

from __future__ import annotations

import pytest

from repro.baselines.averaging import AveragingTrustSystem, TrustReport
from repro.baselines.beta_reputation import BetaReputation, BetaReputationSystem
from repro.baselines.cap_olsr import CapOlsrDetector, CapOlsrTrust, RelayObservation
from repro.baselines.watchdog import Watchdog, WatchdogPathrater


# ------------------------------------------------------------------ watchdog
def test_watchdog_flags_after_threshold_misses():
    watchdog = Watchdog("me")
    for _ in range(5):
        watchdog.expect_forward("dropper")
        watchdog.observe_miss("dropper")
    assert watchdog.is_misbehaving("dropper")
    assert watchdog.misbehaving_nodes() == {"dropper"}


def test_watchdog_does_not_flag_good_relay():
    watchdog = Watchdog("me")
    for _ in range(20):
        watchdog.expect_forward("relay")
        watchdog.observe_forward("relay")
    watchdog.expect_forward("relay")
    watchdog.observe_miss("relay")
    assert not watchdog.is_misbehaving("relay")
    assert watchdog.record_of("relay").miss_ratio < 0.1


def test_watchdog_requires_both_thresholds():
    watchdog = Watchdog("me")
    # Many misses (at least 5) but also many successes: ratio below 0.5.
    for _ in range(6):
        watchdog.expect_forward("relay")
        watchdog.observe_miss("relay")
    for _ in range(20):
        watchdog.expect_forward("relay")
        watchdog.observe_forward("relay")
    assert not watchdog.is_misbehaving("relay")


def test_watchdog_pathrater_bundle():
    bundle = WatchdogPathrater("me")
    for _ in range(10):
        bundle.watchdog.expect_forward("dropper")
        bundle.watchdog.observe_miss("dropper")
    assert bundle.watchdog.misbehaving_nodes() == {"dropper"}
    assert bundle.classify("dropper") == "intruder"
    assert bundle.score_of("dropper") == -1.0


def test_watchdog_round_interface_flags_unanimous_denials():
    bundle = WatchdogPathrater("me")
    # Five responders deny the suspect's advertised behaviour twice: every
    # answer is one overheard forwarding opportunity, denials count as misses.
    answers = {f"s{i}": False for i in range(5)}
    bundle.process_round("attacker", answers)
    score = bundle.process_round("attacker", answers)
    assert score == -1.0
    assert bundle.classify("attacker") == "intruder"
    assert bundle.score_of("attacker") == -1.0


def test_watchdog_round_interface_ignores_missing_answers():
    bundle = WatchdogPathrater("me")
    score = bundle.process_round("suspect", {"s1": True, "s2": None})
    assert score == 1.0
    assert bundle.watchdog.record_of("suspect").expected == 1
    assert bundle.classify("suspect") == "well-behaving"


# ------------------------------------------------------------------ CAP-OLSR
def test_cap_olsr_trust_from_observations():
    trust = CapOlsrTrust("me")
    for _ in range(10):
        trust.add_observation(RelayObservation("s1", "mpr", True))
    assert trust.trust_of("mpr") > 0.5
    trust2 = CapOlsrTrust("me")
    for _ in range(10):
        trust2.add_observation(RelayObservation("s1", "mpr", False))
    assert trust2.trust_of("mpr") < -0.5


def test_cap_olsr_unknown_relay_is_uncertain():
    trust = CapOlsrTrust("me")
    assert trust.trust_of("unknown") == pytest.approx(0.0)
    assert trust.relay_probability("unknown") == pytest.approx(0.5)


def test_cap_olsr_exclusion():
    detector = CapOlsrDetector(owner="me", exclusion_threshold=0.0)
    for _ in range(5):
        detector.trust.add_observation(RelayObservation("s", "bad", False))
        detector.trust.add_observation(RelayObservation("s", "good", True))
    assert detector.classify("bad") == "intruder"
    assert detector.classify("good") == "well-behaving"
    # A relay is excluded as soon as its trust falls below the threshold,
    # even when the observations about it are all positive.
    assert 0.0 < detector.trust.trust_of("good") < 0.9
    strict = CapOlsrDetector(owner="me", exclusion_threshold=0.9, trust=detector.trust)
    assert strict.classify("good") == "intruder"


def test_cap_olsr_detector_round_interface():
    detector = CapOlsrDetector(owner="me")
    score = detector.process_round("suspect", {"s1": False, "s2": False, "s3": None})
    assert score < 0
    assert detector.classify("suspect") == "intruder"
    detector2 = CapOlsrDetector(owner="me")
    detector2.process_round("suspect", {"s1": True, "s2": True})
    assert detector2.classify("suspect") == "well-behaving"


def test_cap_olsr_vulnerable_to_liar_majority():
    # Unlike the paper's system, CAP-OLSR weighs every answer equally, so a
    # liar majority keeps the attacker's trust positive.
    detector = CapOlsrDetector(owner="me")
    for _ in range(10):
        detector.process_round("attacker", {"h1": False, "l1": True, "l2": True})
    assert detector.classify("attacker") == "well-behaving"


# ------------------------------------------------------------- Beta reputation
def test_beta_reputation_expectation_updates():
    reputation = BetaReputation()
    assert reputation.expectation == pytest.approx(0.5)
    reputation.update(positive=8, negative=2)
    assert reputation.expectation == pytest.approx(9 / 12)
    with pytest.raises(ValueError):
        reputation.update(positive=-1)


def test_beta_system_first_hand_and_classification():
    system = BetaReputationSystem("me")
    for _ in range(10):
        system.reputation_of("dropper").update(negative=1.0)
    assert system.classify("dropper") == "intruder"
    assert "dropper" in system.misbehaving_nodes()
    for _ in range(10):
        system.reputation_of("good").update(positive=1.0)
    assert system.classify("good") == "well-behaving"


def test_beta_system_deviation_test_rejects_outliers():
    system = BetaReputationSystem("me")
    for _ in range(20):
        system.reputation_of("node").update(positive=1.0)
    belief = system.expectation_of("node")
    # A wildly negative report deviates too much from the current belief
    # (by more than 0.5) and leaves it unchanged.
    negative_report = BetaReputation(alpha=1.0, beta=20.0)
    assert system.second_hand("node", negative_report) is None
    assert system.expectation_of("node") == belief
    # A mildly positive report is accepted at the second-hand weight 0.2.
    positive_report = BetaReputation(alpha=5.0, beta=1.0)
    assert system.second_hand("node", positive_report) == pytest.approx(21.8 / 22.8)


def test_beta_system_round_interface():
    system = BetaReputationSystem("me")
    score = system.process_round("suspect", {"s1": False, "s2": False, "s3": None})
    assert score < 0.5


# ------------------------------------------------------------------ averaging
def test_averaging_trust_is_mean_of_reports():
    system = AveragingTrustSystem("me")
    system.add_report(TrustReport("s1", "target", 1.0))
    system.add_report(TrustReport("s2", "target", -1.0))
    system.add_report(TrustReport("s3", "target", -1.0))
    assert system.trust_of("target") == pytest.approx(-1 / 3)
    assert system.trust_of("unknown") == 0.0


def test_averaging_report_value_validated():
    system = AveragingTrustSystem("me")
    with pytest.raises(ValueError):
        system.add_report(TrustReport("s", "t", 2.0))


def test_averaging_classification_and_round_interface():
    system = AveragingTrustSystem("me")
    system.process_round("suspect", {"s1": False, "s2": False, "s3": True, "s4": None})
    assert system.classify("suspect") == "intruder"


def test_averaging_is_fooled_by_liar_majority():
    system = AveragingTrustSystem("me")
    system.process_round("attacker", {"h1": False, "l1": True, "l2": True})
    assert system.classify("attacker") == "well-behaving"
