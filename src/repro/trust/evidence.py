"""Trust evidences.

An evidence records one observed activity of a subject node, positive
(beneficial) or negative (harmful), together with the metadata needed to
enforce the paper's five trust properties:

* Property 1 — the sign of ``value`` encodes beneficial vs. harmful.
* Property 2 — ``gravity`` scales the weighting factor α_j.
* Property 3 — ``imminent`` marks evidences belonging to an evolving attack
  signature, which drastically lowers trust.
* Property 4 — fresh evidences count more than stale ones through the
  forgetting factor β of Eq. 5, which discounts every earlier slot; the
  manager never reads ``timestamp``, which only records when the caller
  made the observation.
* Property 5 — ``firsthand`` distinguishes own observations from the less
  reliable second-hand ones.

:func:`weigh_evidence` is the α_j·e_j weighting of Eq. 5.
:meth:`TrustEvidence.weighted` applies it to an evidence object, and the
investigation applies it to its answers without building one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class EvidenceKind(str, enum.Enum):
    """Category of an observed activity."""

    TRAFFIC_RELAYED = "TRAFFIC_RELAYED"
    CORRECT_ANSWER = "CORRECT_ANSWER"
    CONSISTENT_ADVERTISEMENT = "CONSISTENT_ADVERTISEMENT"
    INCORRECT_ANSWER = "INCORRECT_ANSWER"
    TRAFFIC_DROPPED = "TRAFFIC_DROPPED"
    FORGED_MESSAGE = "FORGED_MESSAGE"
    LINK_SPOOFING = "LINK_SPOOFING"
    INVESTIGATION_AGREEMENT = "INVESTIGATION_AGREEMENT"
    INVESTIGATION_DISAGREEMENT = "INVESTIGATION_DISAGREEMENT"
    NO_ANSWER = "NO_ANSWER"

    def __str__(self) -> str:
        return self.value


#: Default gravity (Property 2) per evidence kind.  Harmful activities carry
#: more weight than beneficial ones, which is what makes the trust system
#: "defensive": trust is lost quickly and regained slowly.
DEFAULT_GRAVITY = {
    EvidenceKind.TRAFFIC_RELAYED: 0.5,
    EvidenceKind.CORRECT_ANSWER: 0.5,
    EvidenceKind.CONSISTENT_ADVERTISEMENT: 0.3,
    EvidenceKind.INVESTIGATION_AGREEMENT: 0.5,
    EvidenceKind.INCORRECT_ANSWER: 1.0,
    EvidenceKind.INVESTIGATION_DISAGREEMENT: 1.0,
    EvidenceKind.TRAFFIC_DROPPED: 1.0,
    EvidenceKind.FORGED_MESSAGE: 1.5,
    EvidenceKind.LINK_SPOOFING: 2.0,
    EvidenceKind.NO_ANSWER: 0.0,
}

#: Evidence kinds that are intrinsically harmful (negative value expected).
HARMFUL_KINDS = {
    EvidenceKind.INCORRECT_ANSWER,
    EvidenceKind.TRAFFIC_DROPPED,
    EvidenceKind.FORGED_MESSAGE,
    EvidenceKind.LINK_SPOOFING,
    EvidenceKind.INVESTIGATION_DISAGREEMENT,
}


@dataclass(frozen=True)
class TrustEvidence:
    """One observation about ``subject`` collected by ``observer``."""

    observer: str
    subject: str
    kind: EvidenceKind
    value: float
    timestamp: float = 0.0
    firsthand: bool = True
    gravity: Optional[float] = None
    imminent: bool = False

    def __post_init__(self) -> None:
        if not -1.0 <= self.value <= 1.0:
            raise ValueError(f"evidence value must be in [-1, 1], got {self.value}")

    @property
    def effective_gravity(self) -> float:
        """Gravity to use: explicit value or the per-kind default (Property 2)."""
        if self.gravity is not None:
            return self.gravity
        return DEFAULT_GRAVITY.get(self.kind, 1.0)

    def weighted(self, alpha: float) -> float:
        """Contribution α_j · e_j of this evidence to Eq. 5."""
        return weigh_evidence(alpha, self.effective_gravity, self.value,
                              imminent=self.imminent, firsthand=self.firsthand)


def weigh_evidence(alpha: float, gravity: float, value: float,
                   imminent: bool = False, firsthand: bool = True) -> float:
    """Contribution α_j · e_j of one evidence of ``value`` to Eq. 5.

    ``gravity`` scales α (Property 2); the weight doubles for an imminent
    harmful evidence (Property 3) and halves for a second-hand one
    (Property 5).
    """
    weight = alpha * gravity
    if imminent and value < 0.0:
        # Property 3: imminence of an intrusion drastically decreases trust.
        weight *= 2.0
    if not firsthand:
        # Property 5: second-hand evidences count less than local ones.
        weight *= 0.5
    return weight * value


def beneficial(observer: str, subject: str, kind: EvidenceKind,
               timestamp: float = 0.0, value: float = 1.0,
               firsthand: bool = True) -> TrustEvidence:
    """Build a beneficial (positive) evidence."""
    if value <= 0.0:
        raise ValueError("beneficial evidence requires a positive value")
    return TrustEvidence(observer=observer, subject=subject, kind=kind,
                         value=value, timestamp=timestamp, firsthand=firsthand)


def harmful(observer: str, subject: str, kind: EvidenceKind,
            timestamp: float = 0.0, value: float = -1.0,
            firsthand: bool = True, imminent: bool = False) -> TrustEvidence:
    """Build a harmful (negative) evidence."""
    if value >= 0.0:
        raise ValueError("harmful evidence requires a negative value")
    return TrustEvidence(observer=observer, subject=subject, kind=kind,
                         value=value, timestamp=timestamp, firsthand=firsthand,
                         imminent=imminent)
