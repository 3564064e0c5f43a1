"""Report averaging as it weighed every stored report at every read: the
oracle for :class:`repro.baselines.averaging.AveragingTrustSystem`, which
weighs each report once, when it is added."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.averaging import TrustReport


class ReweighingAveraging:
    """``trust_of`` recomputes each stored report's weight on every call."""

    def __init__(self, distance_discount: float = 0.0,
                 freshness_halflife: Optional[float] = None) -> None:
        self.distance_discount = distance_discount
        self.freshness_halflife = freshness_halflife
        self._reports: Dict[str, List[TrustReport]] = {}

    def add_report(self, report: TrustReport) -> None:
        if not -1.0 <= report.value <= 1.0:
            raise ValueError("report value must be in [-1, 1]")
        self._reports.setdefault(report.subject, []).append(report)

    def _weight(self, report: TrustReport) -> float:
        weight = 1.0
        if self.distance_discount:
            weight *= (1.0 - self.distance_discount) ** max(report.hop_distance - 1, 0)
        if self.freshness_halflife:
            weight *= 0.5 ** (report.age / self.freshness_halflife)
        return weight

    def trust_of(self, subject: str) -> float:
        reports = self._reports.get(subject, [])
        if not reports:
            return 0.0
        weights = [self._weight(r) for r in reports]
        total = sum(weights)
        if total == 0.0:
            return 0.0
        return sum(w * r.value for w, r in zip(weights, reports)) / total
