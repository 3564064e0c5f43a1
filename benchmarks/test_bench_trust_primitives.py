"""Micro-benchmarks of the trust-system primitives (Eqs. 5, 8 and 9).

The paper's future work mentions evaluating "the resource consumption that is
related to the trust system"; these micro-benchmarks record the per-operation
cost of a trust-slot update (one subject, and a 48-subject slot), a detection
aggregation and a confidence-interval computation so the overhead of securing
the detection can be budgeted.
"""

from __future__ import annotations

import random

from repro.core.decision import aggregate_detection, evaluate_investigation
from repro.trust.confidence import margin_of_error, weighted_margin
from repro.trust.evidence import EvidenceKind, TrustEvidence
from repro.trust.manager import TrustManager, TrustParameters


def test_bench_trust_slot_update(benchmark):
    manager = TrustManager("me", TrustParameters())
    evidences = [
        TrustEvidence("me", "subject", EvidenceKind.INVESTIGATION_AGREEMENT, value=1.0),
        TrustEvidence("me", "subject", EvidenceKind.INVESTIGATION_DISAGREEMENT, value=-1.0),
        TrustEvidence("me", "subject", EvidenceKind.LINK_SPOOFING, value=-0.8,
                      firsthand=False, imminent=True),
    ]

    def update():
        return manager.update("subject", evidences)

    value = benchmark(update)
    assert 0.0 <= value <= 1.0


def test_bench_trust_update_all_48_subjects(benchmark):
    """One Eq. 5 slot over a 48-node oracle cell's subjects, half of them
    with a contribution (the investigation's round update)."""
    manager = TrustManager("me", TrustParameters(beta_recovery=0.99))
    rng = random.Random(11)
    for i in range(48):
        manager.set_initial_trust(f"s{i}", rng.random())
    contributions = {f"s{i}": rng.choice([0.02, -0.08]) for i in range(0, 48, 2)}

    values = benchmark(lambda: manager.update_all(contributions))
    assert list(values) == manager.known_subjects()
    assert all(0.0 <= value <= 1.0 for value in values.values())


def test_bench_detection_aggregation_eq8(benchmark):
    rng = random.Random(3)
    answers = {f"s{i}": rng.choice([-1.0, 0.0, 1.0]) for i in range(50)}
    trust = {f"s{i}": rng.random() for i in range(50)}

    result = benchmark(lambda: aggregate_detection(answers, trust))
    assert -1.0 <= result <= 1.0


def test_bench_confidence_interval_eq9(benchmark):
    """Eq. 9 both ways: unweighted, and trust-weighted as
    ``decision.decide_round`` calls it, with the weights' sum in hand."""
    rng = random.Random(5)
    samples = [rng.choice([-1.0, 1.0]) for _ in range(50)]
    weights = [rng.random() for _ in range(50)]

    def compute():
        return (margin_of_error(samples, 0.95),
                weighted_margin(samples, weights, sum(weights), 0.95))

    plain, weighted = benchmark(compute)
    assert plain >= 0.0 and weighted >= 0.0


def test_bench_full_round_evaluation(benchmark):
    rng = random.Random(7)
    answers = {f"s{i}": rng.choice([-1.0, 1.0]) for i in range(14)}
    trust = {f"s{i}": rng.random() for i in range(14)}

    decision = benchmark(lambda: evaluate_investigation("suspect", answers, trust))
    assert decision.suspect == "suspect"
