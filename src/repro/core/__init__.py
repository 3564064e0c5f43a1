"""Paper contribution: log-based detection secured by trust.

* :mod:`repro.core.evidence` — the detection evidences E1–E3 the local
  detector raises, and their builders.  E4 and E5 are a responder's deny
  or confirm, carried in the investigation round's answers (Expression 4).
* :mod:`repro.core.signatures` — the three link-spoofing variants
  (Expressions 1–3).
* :mod:`repro.core.detector` — local, log-based detector producing
  investigation triggers.
* :mod:`repro.core.investigation` — cooperative investigation (Algorithm 1)
  and query transports.
* :mod:`repro.core.decision` — trust-weighted detection aggregate (Eq. 8) and
  the three-way decision rule (Eq. 10).
* :mod:`repro.core.detector_node` — per-node facade composing the whole
  stack on top of an OLSR node.
"""

from repro.core.decision import (
    ANSWER_CONFIRM,
    ANSWER_DENY,
    ANSWER_MISSING,
    DecisionOutcome,
    DetectionDecision,
    aggregate_detection,
    decide,
    evaluate_investigation,
    unweighted_vote,
)
from repro.core.detector import InvestigationTrigger, LocalDetector
from repro.core.detector_node import DetectionConfig, DetectorNode
from repro.core.evidence import (
    DetectionEvidence,
    EvidenceType,
    e1,
    e2,
    e3,
)
from repro.core.investigation import (
    CallableTransport,
    CooperativeInvestigator,
    InvestigationState,
    NetworkPathTransport,
    OracleTransport,
    RoundResult,
    common_two_hop_neighbors,
)
from repro.core.signatures import LinkSpoofingVariant

__all__ = [
    "ANSWER_CONFIRM",
    "ANSWER_DENY",
    "ANSWER_MISSING",
    "CallableTransport",
    "CooperativeInvestigator",
    "DecisionOutcome",
    "DetectionConfig",
    "DetectionDecision",
    "DetectionEvidence",
    "DetectorNode",
    "EvidenceType",
    "InvestigationState",
    "InvestigationTrigger",
    "LinkSpoofingVariant",
    "LocalDetector",
    "NetworkPathTransport",
    "OracleTransport",
    "RoundResult",
    "aggregate_detection",
    "common_two_hop_neighbors",
    "decide",
    "e1",
    "e2",
    "e3",
    "evaluate_investigation",
    "unweighted_vote",
]
