"""Report-averaging baseline (Liu et al., FTDCS 2004 style).

The simplest recommendation fusion: the trust assigned to a target is the
plain average of the reported values, weighted neither by the reporter's
distance or freshness nor by the trust placed in the reporter.  It is the
natural "no defence against liars" strawman the paper's Eq. 8 improves upon,
and the unweighted-vote ablation of the benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

#: A subject whose average report falls below this is an intruder.
MISBEHAVIOR_THRESHOLD = -0.2


@dataclass
class TrustReport:
    """One report about ``subject`` received from ``reporter``."""

    reporter: str
    subject: str
    value: float


class AveragingTrustSystem:
    """Average-of-reports trust."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        #: subject → every reported value, in arrival order.
        self._values: Dict[str, List[float]] = {}

    def add_report(self, report: TrustReport) -> None:
        """Record one report."""
        if not -1.0 <= report.value <= 1.0:
            raise ValueError("report value must be in [-1, 1]")
        self._values.setdefault(report.subject, []).append(report.value)

    def trust_of(self, subject: str) -> float:
        """Average of every report about ``subject`` (0 when none)."""
        values = self._values.get(subject)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def classify(self, subject: str) -> str:
        """"intruder" / "well-behaving" classification of ``subject``."""
        if self.trust_of(subject) < MISBEHAVIOR_THRESHOLD:
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
