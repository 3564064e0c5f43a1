"""Report-averaging baseline (Liu et al., FTDCS 2004 style).

The simplest recommendation fusion: the trust assigned to a target is the
plain average of the reported values, optionally weighted by hop distance and
report freshness but *not* by the trust placed in the reporter.  It is the
natural "no defence against liars" strawman the paper's Eq. 8 improves upon,
and the unweighted-vote ablation of the benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass
class TrustReport:
    """One report about ``subject`` received from ``reporter``."""

    reporter: str
    subject: str
    value: float
    hop_distance: int = 1
    age: float = 0.0


class AveragingTrustSystem:
    """Average-of-reports trust with optional distance/freshness discounting."""

    def __init__(
        self,
        owner: str,
        distance_discount: float = 0.0,
        freshness_halflife: Optional[float] = None,
        misbehavior_threshold: float = -0.2,
    ) -> None:
        if not 0.0 <= distance_discount < 1.0:
            raise ValueError("distance_discount must be in [0, 1)")
        self.owner = owner
        self.distance_discount = distance_discount
        self.freshness_halflife = freshness_halflife
        self.misbehavior_threshold = misbehavior_threshold
        #: subject → (each report's weight, each report's weight × value),
        #: in arrival order.
        self._weighted: Dict[str, Tuple[List[float], List[float]]] = {}

    def add_report(self, report: TrustReport) -> None:
        """Record one report, weighing it once with the discounts set now."""
        if not -1.0 <= report.value <= 1.0:
            raise ValueError("report value must be in [-1, 1]")
        weight = self._weight(report)
        entry = self._weighted.get(report.subject)
        if entry is None:
            entry = self._weighted[report.subject] = ([], [])
        entry[0].append(weight)
        entry[1].append(weight * report.value)

    def _weight(self, report: TrustReport) -> float:
        weight = 1.0
        if self.distance_discount:
            weight *= (1.0 - self.distance_discount) ** max(report.hop_distance - 1, 0)
        if self.freshness_halflife:
            weight *= 0.5 ** (report.age / self.freshness_halflife)
        return weight

    def trust_of(self, subject: str) -> float:
        """Weighted average of every report about ``subject`` (0 when none)."""
        entry = self._weighted.get(subject)
        if entry is None:
            return 0.0
        weights, weighted_values = entry
        total = sum(weights)
        if total == 0.0:
            return 0.0
        return sum(weighted_values) / total

    def classify(self, subject: str) -> str:
        """"intruder" / "well-behaving" classification of ``subject``."""
        if self.trust_of(subject) < self.misbehavior_threshold:
            return "intruder"
        return "well-behaving"

    def process_round(self, suspect: str, answers: Mapping[str, Optional[bool]]) -> float:
        """Round-based adapter: each answer becomes a ±1 report about the suspect."""
        for responder, answer in sorted(answers.items()):
            if answer is None:
                continue
            self.add_report(
                TrustReport(reporter=responder, subject=suspect,
                            value=1.0 if answer else -1.0)
            )
        return self.trust_of(suspect)
