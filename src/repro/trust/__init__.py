"""Entropy-based trust system (Section IV of the paper).

* :mod:`repro.trust.evidence` — trust evidences (Property 1–5 metadata).
* :mod:`repro.trust.entropy` — the information-theoretic trust mapping of
  Sun et al. used to turn observation statistics into trust values.
* :mod:`repro.trust.manager` — direct trust maintenance (Eq. 5) with the
  forgetting factor and gravity weights.
* :mod:`repro.trust.propagation` — concatenated (Eq. 6) and multipath
  (Eq. 7) trust propagation.
* :mod:`repro.trust.confidence` — confidence interval (Eq. 9) and the margin
  of error used by the decision rule (Eq. 10).
* :mod:`repro.trust.recommendation` — recommendation-trust bookkeeping.
"""

from repro.trust.evidence import EvidenceBatch, EvidenceKind, TrustEvidence
from repro.trust.entropy import (
    binary_entropy,
    entropy_trust_from_probability,
    probability_from_entropy_trust,
)
from repro.trust.manager import TrustManager, TrustParameters, TrustRecord
from repro.trust.propagation import (
    concatenated_trust,
    multipath_trust,
    normalised_weights,
)
from repro.trust.confidence import (
    ConfidenceInterval,
    confidence_interval,
    margin_of_error,
    sample_standard_deviation,
    z_value,
)
from repro.trust.recommendation import RecommendationManager

__all__ = [
    "ConfidenceInterval",
    "EvidenceBatch",
    "EvidenceKind",
    "RecommendationManager",
    "TrustEvidence",
    "TrustManager",
    "TrustParameters",
    "TrustRecord",
    "binary_entropy",
    "concatenated_trust",
    "confidence_interval",
    "entropy_trust_from_probability",
    "margin_of_error",
    "multipath_trust",
    "normalised_weights",
    "probability_from_entropy_trust",
    "sample_standard_deviation",
    "z_value",
]
