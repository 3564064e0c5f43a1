"""Tests for the re-implemented baselines (Watchdog, CAP-OLSR, Beta, averaging)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.averaging import AveragingTrustSystem, TrustReport
from repro.baselines.beta_reputation import BetaReputation, BetaReputationSystem
from repro.baselines.cap_olsr import CapOlsrDetector, CapOlsrTrust, RelayObservation
from repro.baselines.watchdog import Pathrater, Watchdog, WatchdogPathrater


# ------------------------------------------------------------------ watchdog
def test_watchdog_flags_after_threshold_misses():
    watchdog = Watchdog("me", miss_threshold=3, miss_ratio_threshold=0.5)
    for _ in range(5):
        watchdog.expect_forward("dropper")
        watchdog.observe_miss("dropper")
    assert watchdog.is_misbehaving("dropper")
    assert watchdog.misbehaving_nodes() == {"dropper"}


def test_watchdog_does_not_flag_good_relay():
    watchdog = Watchdog("me", miss_threshold=3)
    for _ in range(20):
        watchdog.expect_forward("relay")
        watchdog.observe_forward("relay")
    watchdog.expect_forward("relay")
    watchdog.observe_miss("relay")
    assert not watchdog.is_misbehaving("relay")
    assert watchdog.record_of("relay").miss_ratio < 0.1


def test_watchdog_requires_both_thresholds():
    watchdog = Watchdog("me", miss_threshold=5, miss_ratio_threshold=0.5)
    # Many misses but also many successes: ratio below threshold.
    for _ in range(6):
        watchdog.expect_forward("relay")
        watchdog.observe_miss("relay")
    for _ in range(20):
        watchdog.expect_forward("relay")
        watchdog.observe_forward("relay")
    assert not watchdog.is_misbehaving("relay")


def test_pathrater_rating_evolution():
    pathrater = Pathrater("me", neutral_rating=0.5, increment=0.1, decrement=0.2, maximum=0.8)
    pathrater.actively_used("relay")
    assert pathrater.rating_of("relay") == pytest.approx(0.6)
    for _ in range(10):
        pathrater.actively_used("relay")
    assert pathrater.rating_of("relay") == pytest.approx(0.8)
    pathrater.negative_event("relay")
    assert pathrater.rating_of("relay") == pytest.approx(0.6)


def test_pathrater_flagged_node_gets_misbehaving_rating():
    watchdog = Watchdog("me", miss_threshold=1, miss_ratio_threshold=0.0)
    watchdog.expect_forward("bad")
    watchdog.observe_miss("bad")
    pathrater = Pathrater("me", watchdog=watchdog)
    assert pathrater.rating_of("bad") == pathrater.misbehaving_rating


def test_pathrater_best_path_avoids_misbehaving_nodes():
    watchdog = Watchdog("me", miss_threshold=1, miss_ratio_threshold=0.0)
    watchdog.expect_forward("bad")
    watchdog.observe_miss("bad")
    pathrater = Pathrater("me", watchdog=watchdog)
    good_path = ["me", "a", "b", "dest"]
    bad_path = ["me", "bad", "dest"]
    assert pathrater.best_path([bad_path, good_path]) == good_path
    assert pathrater.best_path([bad_path]) is None
    assert pathrater.path_rating(["me"]) == pathrater.neutral_rating


def test_watchdog_pathrater_bundle():
    bundle = WatchdogPathrater("me")
    for _ in range(10):
        bundle.watchdog.expect_forward("dropper")
        bundle.watchdog.observe_miss("dropper")
    assert bundle.detected_attackers() == {"dropper"}


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
    trust.add_observations([RelayObservation("s1", "mpr", True) for _ in range(10)])
    assert trust.trust_of("mpr") > 0.5
    trust2 = CapOlsrTrust("me")
    trust2.add_observations([RelayObservation("s1", "mpr", False) for _ in range(10)])
    assert trust2.trust_of("mpr") < -0.5


def test_cap_olsr_unknown_relay_is_uncertain():
    trust = CapOlsrTrust("me")
    assert trust.trust_of("unknown") == pytest.approx(0.0)
    assert trust.relay_probability("unknown") == pytest.approx(0.5)


def test_cap_olsr_exclusion():
    trust = CapOlsrTrust("me", exclusion_threshold=0.0)
    trust.add_observations([RelayObservation("s", "bad", False) for _ in range(5)])
    trust.add_observations([RelayObservation("s", "good", True) for _ in range(5)])
    assert trust.excluded_mprs({"bad", "good"}) == {"bad"}
    assert trust.filtered_mpr_set({"bad", "good"}) == {"good"}
    assert trust.observation_counts("bad") == {"positive": 0, "negative": 5}


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


def test_beta_reputation_fade():
    reputation = BetaReputation(alpha=11.0, beta=1.0)
    reputation.fade(0.5)
    assert reputation.alpha == pytest.approx(6.0)
    assert reputation.beta == pytest.approx(1.0)
    with pytest.raises(ValueError):
        reputation.fade(2.0)


def test_beta_system_first_hand_and_classification():
    system = BetaReputationSystem("me", misbehavior_threshold=0.35)
    for _ in range(10):
        system.first_hand("dropper", negative=1.0)
    assert system.classify("dropper") == "intruder"
    assert "dropper" in system.misbehaving_nodes()
    for _ in range(10):
        system.first_hand("good", positive=1.0)
    assert system.classify("good") == "well-behaving"


def test_beta_system_deviation_test_rejects_outliers():
    system = BetaReputationSystem("me", deviation_threshold=0.2)
    for _ in range(20):
        system.first_hand("node", positive=1.0)
    # A wildly negative report deviates too much from the current belief.
    negative_report = BetaReputation(alpha=1.0, beta=20.0)
    assert system.second_hand("node", negative_report) is None
    assert system.rejected_reports == 1
    # A mildly positive report is accepted.
    positive_report = BetaReputation(alpha=5.0, beta=1.0)
    assert system.second_hand("node", positive_report) is not None
    assert system.accepted_reports == 1


def test_beta_system_fade_all_moves_toward_prior():
    system = BetaReputationSystem("me", fading_factor=0.5)
    system.first_hand("node", positive=10.0)
    before = system.expectation_of("node")
    system.fade_all()
    after = system.expectation_of("node")
    assert abs(after - 0.5) < abs(before - 0.5)


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
    assert system.report_count("target") == 3
    assert system.trust_of("unknown") == 0.0


def test_averaging_report_value_validated():
    system = AveragingTrustSystem("me")
    with pytest.raises(ValueError):
        system.add_report(TrustReport("s", "t", 2.0))
    with pytest.raises(ValueError):
        AveragingTrustSystem("me", distance_discount=1.0)


def test_averaging_distance_discount():
    system = AveragingTrustSystem("me", distance_discount=0.5)
    system.add_report(TrustReport("near", "t", 1.0, hop_distance=1))
    system.add_report(TrustReport("far", "t", -1.0, hop_distance=4))
    # The distant negative report is discounted, so the average stays positive.
    assert system.trust_of("t") > 0


def test_averaging_freshness_discount():
    system = AveragingTrustSystem("me", freshness_halflife=10.0)
    system.add_report(TrustReport("old", "t", 1.0, age=100.0))
    system.add_report(TrustReport("new", "t", -1.0, age=0.0))
    assert system.trust_of("t") < 0


_REPORTS = st.builds(
    TrustReport,
    reporter=st.just("r"),
    subject=st.sampled_from(["x", "y"]),
    value=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
    hop_distance=st.integers(0, 8),
    age=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
)


@given(distance_discount=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       halflife=st.one_of(st.none(), st.just(0.0), st.floats(0.5, 100.0)),
       reports=st.lists(_REPORTS, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_averaging_weighs_once_as_the_reweighing_oracle(distance_discount, halflife, reports):
    """Weights fixed when a report is added give the oracle's averages,
    which weigh every stored report again at each read, bit for bit."""
    from tests.reference.averaging import ReweighingAveraging

    system = AveragingTrustSystem("me", distance_discount=distance_discount,
                                  freshness_halflife=halflife)
    oracle = ReweighingAveraging(distance_discount, halflife)
    for report in reports:
        system.add_report(report)
        oracle.add_report(report)
        for subject in ("x", "y", "z"):
            assert float.hex(system.trust_of(subject)) == float.hex(oracle.trust_of(subject))
            assert system.report_count(subject) == oracle.report_count(subject)


def test_averaging_classification_and_round_interface():
    system = AveragingTrustSystem("me", misbehavior_threshold=-0.2)
    system.process_round("suspect", {"s1": False, "s2": False, "s3": True, "s4": None})
    assert system.classify("suspect") == "intruder"
    assert system.report_count("suspect") == 3


def test_averaging_is_fooled_by_liar_majority():
    system = AveragingTrustSystem("me")
    system.process_round("attacker", {"h1": False, "l1": True, "l2": True})
    assert system.classify("attacker") == "well-behaving"
