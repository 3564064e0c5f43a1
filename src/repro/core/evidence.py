"""Detection evidences E1–E5 (Section III-B of the paper).

The detection of a link-spoofing attack relies on five classes of evidence:

* **E1** — an MPR has been replaced (a change in the covering of 1-hop
  neighbours caused the replacement).
* **E2** — a previously selected MPR is observed misbehaving (dropping,
  forging or mis-relaying messages).
* **E3** — an MPR is the only node providing connectivity to some node(s);
  suspicious but not sufficient to start an investigation on its own.
* **E4** — an MPR does not cover its adjacent neighbour(s): a neighbour
  denies the link the MPR advertises.
* **E5** — an MPR provides connectivity to a non-neighbour: it advertises a
  node that is not actually adjacent.

E1/E2 (optionally strengthened by E3) start an investigation; E4/E5 are what
the cooperative investigation establishes, and decide whether the suspicious
MPR is an intruder (Expression 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class EvidenceType(str, enum.Enum):
    """The five evidences of the link-spoofing detection strategy."""

    E1_MPR_REPLACED = "E1"
    E2_MPR_MISBEHAVIOR = "E2"
    E3_SOLE_PROVIDER = "E3"
    E4_NEIGHBOR_NOT_COVERED = "E4"
    E5_NON_NEIGHBOR_ADVERTISED = "E5"

    def __str__(self) -> str:
        return self.value


class SuspicionLevel(int, enum.Enum):
    """Criticality attached to an evidence, driving whether to investigate.

    The paper categorises events by level of criticality so that only the
    relevant ones trigger a (costly) distributed investigation.
    """

    INFORMATIONAL = 0
    SUSPICIOUS = 1
    CRITICAL = 2


#: Default criticality per evidence type.
DEFAULT_SUSPICION = {
    EvidenceType.E1_MPR_REPLACED: SuspicionLevel.SUSPICIOUS,
    EvidenceType.E2_MPR_MISBEHAVIOR: SuspicionLevel.CRITICAL,
    EvidenceType.E3_SOLE_PROVIDER: SuspicionLevel.INFORMATIONAL,
    EvidenceType.E4_NEIGHBOR_NOT_COVERED: SuspicionLevel.CRITICAL,
    EvidenceType.E5_NON_NEIGHBOR_ADVERTISED: SuspicionLevel.CRITICAL,
}


@dataclass(frozen=True)
class DetectionEvidence:
    """One evidence about a suspicious MPR."""

    evidence_type: EvidenceType
    observer: str
    suspect: str
    time: float
    suspicion: Optional[SuspicionLevel] = None
    details: Dict[str, str] = field(default_factory=dict, hash=False, compare=False)

    @property
    def level(self) -> SuspicionLevel:
        """Criticality level (explicit value or the per-type default)."""
        if self.suspicion is not None:
            return self.suspicion
        return DEFAULT_SUSPICION[self.evidence_type]

def e1(observer: str, suspect: str, time: float, replaced: str) -> DetectionEvidence:
    """Build an E1 evidence: ``suspect`` replaced ``replaced`` as MPR of ``observer``."""
    return DetectionEvidence(
        evidence_type=EvidenceType.E1_MPR_REPLACED,
        observer=observer,
        suspect=suspect,
        time=time,
        details={"replaced": replaced},
    )


def e2(observer: str, suspect: str, time: float, reason: str) -> DetectionEvidence:
    """Build an E2 evidence: the MPR ``suspect`` was seen misbehaving."""
    return DetectionEvidence(
        evidence_type=EvidenceType.E2_MPR_MISBEHAVIOR,
        observer=observer,
        suspect=suspect,
        time=time,
        details={"reason": reason},
    )


def e3(observer: str, suspect: str, time: float, isolated_node: str) -> DetectionEvidence:
    """Build an E3 evidence: ``suspect`` is the sole provider of ``isolated_node``."""
    return DetectionEvidence(
        evidence_type=EvidenceType.E3_SOLE_PROVIDER,
        observer=observer,
        suspect=suspect,
        time=time,
        details={"isolated_node": isolated_node},
    )
