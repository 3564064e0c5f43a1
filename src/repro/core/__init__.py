"""Paper contribution: log/signature-based detection secured by trust.

* :mod:`repro.core.evidence` — detection evidences E1–E5.
* :mod:`repro.core.signatures` — attack signatures and the three link
  spoofing expressions.
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
    detection_weights,
    evaluate_investigation,
    unweighted_vote,
)
from repro.core.detector import InvestigationTrigger, LocalDetector
from repro.core.detector_node import DetectionConfig, DetectorNode
from repro.core.evidence import (
    DetectionEvidence,
    EvidenceType,
    SuspicionLevel,
    e1,
    e2,
    e3,
    e4,
    e5,
)
from repro.core.investigation import (
    CallableTransport,
    CooperativeInvestigator,
    InvestigationState,
    NetworkPathTransport,
    OracleTransport,
    RoundResult,
    common_two_hop_neighbors,
    path_avoiding,
)
from repro.core.signatures import (
    EventPattern,
    LinkSpoofingVariant,
    Signature,
    SignatureMatch,
    SignatureMatcher,
    SpoofingIndicator,
    evaluate_expression_1,
    evaluate_expression_2,
    evaluate_expression_3,
    evaluate_link_spoofing,
    link_spoofing_event_signature,
)

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
    "EventPattern",
    "EvidenceType",
    "InvestigationState",
    "InvestigationTrigger",
    "LinkSpoofingVariant",
    "LocalDetector",
    "NetworkPathTransport",
    "OracleTransport",
    "RoundResult",
    "Signature",
    "SignatureMatch",
    "SignatureMatcher",
    "SpoofingIndicator",
    "SuspicionLevel",
    "aggregate_detection",
    "common_two_hop_neighbors",
    "decide",
    "detection_weights",
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "evaluate_expression_1",
    "evaluate_expression_2",
    "evaluate_expression_3",
    "evaluate_investigation",
    "evaluate_link_spoofing",
    "link_spoofing_event_signature",
    "path_avoiding",
    "unweighted_vote",
]
