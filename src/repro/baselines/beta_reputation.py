"""Bayesian Beta-reputation baseline (Buchegger & Le Boudec, CONFIDANT line).

Reputation about a node is maintained as a Beta(α, β) distribution over its
probability of behaving correctly: positive observations increment α,
negative ones increment β.  Second-hand reports are merged with a deviation
test (reports too far from the current belief are rejected), the "robust
reputation system" refinement of the 2004 paper.  Its reputation fading is
not reproduced: the round adapter keeps every report at full weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set


@dataclass
class BetaReputation:
    """Beta-distributed reputation about one subject."""

    alpha: float = 1.0
    beta: float = 1.0

    @property
    def expectation(self) -> float:
        """Expected probability of correct behaviour, E[Beta(α, β)] = α/(α+β)."""
        return self.alpha / (self.alpha + self.beta)

    def update(self, positive: float = 0.0, negative: float = 0.0) -> None:
        """Add first-hand observations."""
        if positive < 0 or negative < 0:
            raise ValueError("observation counts must be non-negative")
        self.alpha += positive
        self.beta += negative


class BetaReputationSystem:
    """Per-node reputation table with deviation-tested second-hand reports."""

    def __init__(
        self,
        owner: str,
        deviation_threshold: float = 0.5,
        second_hand_weight: float = 0.2,
        misbehavior_threshold: float = 0.35,
    ) -> None:
        self.owner = owner
        self.deviation_threshold = deviation_threshold
        self.second_hand_weight = second_hand_weight
        self.misbehavior_threshold = misbehavior_threshold
        self._reputation: Dict[str, BetaReputation] = {}
        self.rejected_reports = 0
        self.accepted_reports = 0

    # ---------------------------------------------------------------- updates
    def reputation_of(self, subject: str) -> BetaReputation:
        """Reputation record of ``subject`` (uniform prior when unknown)."""
        record = self._reputation.get(subject)
        if record is None:
            record = BetaReputation()
            self._reputation[subject] = record
        return record

    def second_hand(self, subject: str, reported: BetaReputation) -> Optional[float]:
        """Merge a second-hand report after the deviation test.

        The report is rejected (returns ``None``) when its expectation deviates
        from the current belief by more than ``deviation_threshold``; otherwise
        it is merged with weight ``second_hand_weight``.
        """
        record = self.reputation_of(subject)
        if abs(reported.expectation - record.expectation) > self.deviation_threshold:
            self.rejected_reports += 1
            return None
        self.accepted_reports += 1
        record.alpha += self.second_hand_weight * (reported.alpha - 1.0)
        record.beta += self.second_hand_weight * (reported.beta - 1.0)
        return record.expectation

    # ---------------------------------------------------------------- queries
    def expectation_of(self, subject: str) -> float:
        """Expected probability that ``subject`` behaves correctly."""
        return self.reputation_of(subject).expectation

    def misbehaving_nodes(self) -> Set[str]:
        """Subjects whose expectation fell below the misbehaviour threshold."""
        return {
            subject
            for subject, record in self._reputation.items()
            if record.expectation < self.misbehavior_threshold
        }

    def classify(self, subject: str) -> str:
        """"intruder" / "well-behaving" classification of ``subject``."""
        if self.expectation_of(subject) < self.misbehavior_threshold:
            return "intruder"
        return "well-behaving"

    def process_round(self, suspect: str, answers: Mapping[str, Optional[bool]]) -> float:
        """Round-based adapter matching the paper detector's interface.

        Each responder's answer is treated as a second-hand report: a denial
        contributes a negative report about the suspect, a confirmation a
        positive one.  Reports are deviation-tested exactly as self-reports
        would be.
        """
        for _responder, answer in sorted(answers.items()):
            if answer is None:
                continue
            report = BetaReputation()
            if answer:
                report.update(positive=1.0)
            else:
                report.update(negative=1.0)
            self.second_hand(suspect, report)
        return self.expectation_of(suspect)
