"""Detection evidences E1–E3 (Section III-B of the paper).

The detection of a link-spoofing attack relies on five classes of evidence;
the first three are evidence objects a node raises from its own logs:

* **E1** — an MPR has been replaced (a change in the covering of 1-hop
  neighbours caused the replacement).
* **E2** — a previously selected MPR is observed misbehaving (dropping,
  forging or mis-relaying messages).
* **E3** — an MPR is the only node providing connectivity to some node(s);
  suspicious but not sufficient to start an investigation on its own.

E1 or E2 starts an investigation, and E3 only enriches the trigger it joins.
E4 (an MPR does not cover its adjacent neighbour: a neighbour denies the
advertised link) and E5 (an MPR advertises a node that is not adjacent) are
not evidence objects: they are a responder's deny or confirm, carried in the
round's answers, and decide whether the suspicious MPR is an intruder
(Expression 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class EvidenceType(str, enum.Enum):
    """The evidences a node raises from its own logs."""

    E1_MPR_REPLACED = "E1"
    E2_MPR_MISBEHAVIOR = "E2"
    E3_SOLE_PROVIDER = "E3"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DetectionEvidence:
    """One evidence about a suspicious MPR."""

    evidence_type: EvidenceType
    observer: str
    suspect: str
    time: float
    details: Dict[str, str] = field(default_factory=dict, hash=False, compare=False)


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
