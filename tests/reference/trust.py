"""An investigation round as it was computed evidence by evidence: the oracle
for the one-pass round of :class:`repro.core.investigation.CooperativeInvestigator`.

* :class:`PerSubjectTrust` — Eq. 5 subject by subject: each slot filters a
  subject's evidence list, weights every :class:`TrustEvidence` on its own,
  reads the old value through ``trust_of`` and clamps with ``_clamp``.
* :func:`update_trust_from_round` — one :class:`TrustEvidence` per
  responder that answered (and one about the suspect), grouped by subject,
  then one :meth:`PerSubjectTrust.update` per subject in sorted order.
* :func:`evaluate_investigation` — Eqs. 8–10 with the responders sorted
  twice, the trust read twice, ``sum(weights)`` three times and the
  effective sample size computed twice.
* :func:`query_responder` — one responder's reply in either mode, through
  a helper per responder: its own link with the suspect, or each contested
  link until a denial.
* :func:`run_round` — the round: replies first, then the trust view with
  one ``trust_of`` per responder, Eqs. 8–10, and the majority found by a
  second walk over the answers.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.decision import (
    ANSWER_MISSING,
    DetectionDecision,
    decide,
    unweighted_vote,
)
from repro.trust.confidence import (
    ConfidenceInterval,
    confidence_interval,
    margin_of_error,
    sample_standard_deviation,
    z_value,
)
from repro.trust.evidence import EvidenceKind, TrustEvidence
from repro.trust.manager import TrustParameters


def _weighted(evidence: TrustEvidence, alpha: float) -> float:
    """Contribution α_j · e_j of one evidence to Eq. 5."""
    weight = alpha * evidence.effective_gravity
    if evidence.imminent and evidence.value < 0.0:
        weight *= 2.0
    if not evidence.firsthand:
        weight *= 0.5
    return weight * evidence.value


class PerSubjectTrust:
    """Direct trust updated one subject and one evidence list at a time."""

    def __init__(self, parameters: TrustParameters) -> None:
        self.parameters = parameters
        self._values: Dict[str, float] = {}

    def trust_of(self, subject: str) -> float:
        return self._values.get(subject, self.parameters.default_trust)

    def set_initial_trust(self, subject: str, value: float) -> None:
        self._values[subject] = self._clamp(value)

    def update(self, subject: str, evidences: Iterable[TrustEvidence]) -> float:
        params = self.parameters
        value = self.trust_of(subject)
        evidence_list = [e for e in evidences if e.subject == subject]

        contribution = 0.0
        for evidence in evidence_list:
            alpha = params.alpha_harmful if evidence.value < 0.0 else params.alpha_beneficial
            contribution += _weighted(evidence, alpha)

        beta = params.beta
        if (
            not evidence_list
            and params.beta_recovery is not None
            and value < params.default_trust
        ):
            beta = params.beta_recovery

        new_value = self._clamp(
            contribution + beta * value + (1.0 - beta) * params.default_trust)
        self._values[subject] = new_value
        return new_value

    def update_all(
        self, evidences_by_subject: Dict[str, List[TrustEvidence]]
    ) -> Dict[str, float]:
        subjects = sorted(set(evidences_by_subject) | set(self._values))
        return {
            subject: self.update(subject, evidences_by_subject.get(subject, []))
            for subject in subjects
        }

    def decay_all(self) -> Dict[str, float]:
        return self.update_all({})

    def _clamp(self, value: float) -> float:
        return max(self.parameters.minimum, min(self.parameters.maximum, value))

    def as_dict(self) -> Dict[str, float]:
        return dict(sorted(self._values.items()))


def update_trust_from_round(trust: PerSubjectTrust, owner: str, suspect: str,
                            answers: Mapping[str, float], detect: float) -> None:
    """Eq. 5 after one round, from one evidence object per observation."""
    evidences: Dict[str, List[TrustEvidence]] = {}

    received = [a for a in answers.values() if a != ANSWER_MISSING]
    majority = sum(received) / len(received) if received else 0.0
    if abs(majority) > 1e-9:
        reference_sign = 1.0 if majority > 0 else -1.0
        for responder, answer in answers.items():
            if answer == ANSWER_MISSING:
                continue
            agreed = (answer * reference_sign) > 0
            kind = (
                EvidenceKind.INVESTIGATION_AGREEMENT
                if agreed
                else EvidenceKind.INVESTIGATION_DISAGREEMENT
            )
            value = 1.0 if agreed else -1.0
            evidences.setdefault(responder, []).append(
                TrustEvidence(observer=owner, subject=responder, kind=kind,
                              value=value, firsthand=True))

    if abs(detect) > 1e-9:
        kind = EvidenceKind.LINK_SPOOFING if detect < 0 else EvidenceKind.CONSISTENT_ADVERTISEMENT
        evidences.setdefault(suspect, []).append(
            TrustEvidence(observer=owner, subject=suspect, kind=kind,
                          value=max(-1.0, min(1.0, detect)),
                          firsthand=False, imminent=detect < -0.5))

    trust.update_all(evidences)


# ------------------------------------------------------------- Eqs. 8–10
def detection_weights(trust_values: Sequence[float]) -> List[float]:
    total = sum(trust_values)
    if total <= 0.0:
        return [0.0 for _ in trust_values]
    weight = 1.0 / total
    if math.isinf(weight):
        return [0.0 for _ in trust_values]
    return [weight for _ in trust_values]


def aggregate_detection(answers: Mapping[str, float],
                        trust: Mapping[str, float]) -> float:
    responders = sorted(answers)
    trust_values = [max(0.0, trust.get(r, 0.0)) for r in responders]
    weights = detection_weights(trust_values)
    result = 0.0
    for responder, weight, trust_value in zip(responders, weights, trust_values):
        value = answers[responder]
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"answer of {responder} out of range: {value}")
        result += weight * trust_value * value
    return max(-1.0, min(1.0, result))


def effective_sample_size(weights: Sequence[float]) -> float:
    total = sum(weights)
    squares = sum(w * w for w in weights)
    if squares <= 0.0:
        return 0.0
    return (total * total) / squares


def weighted_sample_standard_deviation(samples: Sequence[float],
                                       weights: Sequence[float]) -> float:
    if len(samples) != len(weights):
        raise ValueError("samples and weights must have the same length")
    total = sum(weights)
    if total <= 0.0:
        return sample_standard_deviation(samples)
    normalised = [w / total for w in weights]
    mean = sum(w * x for w, x in zip(normalised, samples))
    variance = sum(w * (x - mean) ** 2 for w, x in zip(normalised, samples))
    n_eff = effective_sample_size(weights)
    if n_eff > 1.0:
        variance *= n_eff / (n_eff - 1.0)
    return math.sqrt(variance)


def weighted_margin_of_error(samples: Sequence[float], weights: Sequence[float],
                             confidence_level: float = 0.95) -> float:
    if not samples:
        return 0.0
    n_eff = effective_sample_size(weights)
    if n_eff <= 0.0:
        return margin_of_error(samples, confidence_level)
    sigma = weighted_sample_standard_deviation(samples, weights)
    return z_value(confidence_level) * sigma / math.sqrt(n_eff)


def evaluate_investigation(
    suspect: str,
    answers: Mapping[str, float],
    trust: Mapping[str, float],
    gamma: float = 0.6,
    confidence_level: float = 0.95,
    use_trust_weighting: bool = True,
) -> DetectionDecision:
    responders = sorted(answers)
    samples = [answers[r] for r in responders]
    if use_trust_weighting:
        detect_value = aggregate_detection(answers, trust)
        weights = [max(0.0, trust.get(r, 0.0)) for r in responders]
        interval = ConfidenceInterval(
            center=detect_value,
            margin=weighted_margin_of_error(samples, weights, confidence_level),
            confidence_level=confidence_level,
            sample_size=len(samples),
        )
    else:
        detect_value = unweighted_vote(answers)
        interval = confidence_interval(samples, center=detect_value,
                                       confidence_level=confidence_level)
    outcome = decide(detect_value, interval.margin, gamma=gamma)
    return DetectionDecision(
        suspect=suspect,
        detect_value=detect_value,
        interval=interval,
        gamma=gamma,
        outcome=outcome,
        answers=dict(answers),
        trust_used={k: trust.get(k, 0.0) for k in answers},
    )


def query_responder(transport, owner: str, responder: str, suspect: str,
                    contested_links: Sequence[str]) -> Optional[bool]:
    """Query one responder, honouring the contested-link mode.

    Without contested links the responder verifies its *own* link with the
    suspect.  With contested links it is asked about each of them; per
    Expression 4 a single witnessed falsification (E4/E5) is damning, so a
    single denial yields an overall deny, a confirmation without any
    denial yields confirm, and no knowledge at all yields no answer.
    """
    if not contested_links:
        return transport.verify_link(owner, responder, suspect)
    saw_confirm = False
    saw_answer = False
    for link_peer in contested_links:
        reply = transport.verify_link(owner, responder, suspect, link_peer=link_peer)
        if reply is None:
            continue
        saw_answer = True
        if not reply:
            return False
        saw_confirm = True
    if not saw_answer:
        return None
    return saw_confirm


def run_round(trust: PerSubjectTrust, owner: str, suspect: str,
              responders: Sequence[str], transport,
              contested_links: Sequence[str] = (),
              gamma: float = 0.6, confidence_level: float = 0.95,
              use_trust_weighting: bool = True) -> DetectionDecision:
    """One round of Algorithm 1, each responder queried through ``transport``
    about ``contested_links`` (sorted, the suspect left out) or, when there
    are none, about its own link with the suspect."""
    answers: Dict[str, float] = {}
    for responder in sorted(set(responders)):
        reply = query_responder(transport, owner, responder, suspect, contested_links)
        answers[responder] = 0.0 if reply is None else (1.0 if reply else -1.0)
    trust_view = {responder: trust.trust_of(responder) for responder in answers}
    decision = evaluate_investigation(suspect, answers, trust_view, gamma=gamma,
                                      confidence_level=confidence_level,
                                      use_trust_weighting=use_trust_weighting)
    update_trust_from_round(trust, owner, suspect, answers, decision.detect_value)
    return decision
