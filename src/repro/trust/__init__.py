"""Entropy-based trust system (Section IV of the paper).

* :mod:`repro.trust.evidence` — trust evidences (Property 1–5 metadata).
* :mod:`repro.trust.entropy` — the information-theoretic trust mapping of
  Sun et al., which the CAP-OLSR baseline uses to score relays.
* :mod:`repro.trust.manager` — direct trust maintenance (Eq. 5) with the
  forgetting factor and gravity weights: one value per subject.
* :mod:`repro.trust.confidence` — confidence interval (Eq. 9) and the margin
  of error used by the decision rule (Eq. 10).

The paper's trust propagation (Eqs. 6–7) and the recommendation trust
``R^{A,S}`` it takes as input are not reproduced: the detection aggregate
(Eq. 8) weights each answer by the direct trust ``T^{A,S_i}``, and no step
of Algorithm 1 exchanges trust values.
"""

from repro.trust.evidence import EvidenceKind, TrustEvidence
from repro.trust.entropy import binary_entropy, entropy_trust_from_probability
from repro.trust.manager import TrustManager, TrustParameters
from repro.trust.confidence import (
    ConfidenceInterval,
    confidence_interval,
    margin_of_error,
    sample_standard_deviation,
    z_value,
)

__all__ = [
    "ConfidenceInterval",
    "EvidenceKind",
    "TrustEvidence",
    "TrustManager",
    "TrustParameters",
    "binary_entropy",
    "confidence_interval",
    "entropy_trust_from_probability",
    "margin_of_error",
    "sample_standard_deviation",
    "z_value",
]
