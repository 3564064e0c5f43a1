"""Trust-weighted detection aggregate and decision rule (Eqs. 8–10).

The investigation collects second-hand evidences ``e^{S_i,I} ∈ {−1, 0, +1}``
from the 1-hop neighbours ``S_1 … S_m`` of the suspect ``I``.  The detection
aggregate weighs each answer with the trust the investigator places in the
answering node::

    Detect^{A,I} = Σ_i w_i · T^{A,S_i} · e^{S_i,I}      w_i = 1 / Σ_j T^{A,S_j}

An answer of +1 confirms the link advertised by ``I`` (no spoofing), −1 denies
it, and 0 records a missing answer (time-out).  A value of ``Detect`` close to
−1 indicates a link-spoofing attack.

The decision rule (Eq. 10) combines the aggregate with the confidence-interval
margin ``Ci`` and the decision threshold ``γ``::

    well-behaving   if  γ ≤ Detect − Ci ≤ 1
    intruder        if −1 ≤ Detect + Ci ≤ −γ
    unrecognized    otherwise  (collect more evidences)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.trust.confidence import (
    ConfidenceInterval,
    confidence_interval,
    weighted_margin,
)


class DecisionOutcome(str, enum.Enum):
    """Ternary verdict of the decision rule."""

    WELL_BEHAVING = "well-behaving"
    INTRUDER = "intruder"
    UNRECOGNIZED = "unrecognized"

    def __str__(self) -> str:
        return self.value


#: Valid evidence values for an investigation answer.
ANSWER_CONFIRM = 1.0
ANSWER_DENY = -1.0
ANSWER_MISSING = 0.0


def _detection_weight(total: float) -> float:
    """The common weight ``1 / Σ_j T^{A,S_j}`` of Eq. 8 (0 when unusable)."""
    if total <= 0.0:
        return 0.0
    weight = 1.0 / total
    if math.isinf(weight):
        return 0.0
    return weight


def _weighted_detection(responders: Sequence[str], samples: Sequence[float],
                        trust_values: Sequence[float], total: float) -> float:
    """Eq. 8 over index-aligned responders, answers and clipped trust values
    whose sum is ``total``."""
    weight = _detection_weight(total)
    result = 0.0
    for responder, value, trust_value in zip(responders, samples, trust_values):
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"answer of {responder} out of range: {value}")
        result += weight * trust_value * value
    return max(-1.0, min(1.0, result))


def aggregate_detection(
    answers: Mapping[str, float],
    trust: Mapping[str, float],
) -> float:
    """Equation 8: trust-weighted aggregation of the investigation answers.

    ``answers`` maps responder id → evidence value in ``{−1, 0, +1}`` and
    ``trust`` maps responder id → ``T^{A,S_i}``.  Responders without a trust
    entry contribute with zero weight.
    """
    responders = sorted(answers)
    samples, weights = _samples_and_weights(responders, answers, trust)
    return _weighted_detection(responders, samples, weights, sum(weights))


def _samples_and_weights(responders: Sequence[str], answers: Mapping[str, float],
                         trust: Mapping[str, float]) -> Tuple[List[float], List[float]]:
    """Each responder's answer and its Eq. 8 weight, in ``responders`` order.

    A weight is the responder's trust clipped at 0 (no entry: 0).
    ``t if t > 0.0 else 0.0`` is ``max(0.0, t)`` without the builtin call,
    and yields ``0.0`` for ``-0.0`` and NaN as ``max`` does.
    """
    samples = []
    weights = []
    for responder in responders:
        samples.append(answers[responder])
        value = trust.get(responder, 0.0)
        weights.append(value if value > 0.0 else 0.0)
    return samples, weights


def unweighted_vote(answers: Mapping[str, float]) -> float:
    """Plain mean of the answers (the ablation baseline without trust weighting).

    Answers outside [−1, 1] raise ``ValueError``, as in Eq. 8.
    """
    if not answers:
        return 0.0
    for responder in sorted(answers):
        value = answers[responder]
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"answer of {responder} out of range: {value}")
    values = list(answers.values())
    return sum(values) / len(values)


@dataclass
class DetectionDecision:
    """Full outcome of one application of the decision rule."""

    suspect: str
    detect_value: float
    interval: ConfidenceInterval
    gamma: float
    outcome: DecisionOutcome
    answers: Dict[str, float] = field(default_factory=dict)
    trust_used: Dict[str, float] = field(default_factory=dict)

    @property
    def is_final(self) -> bool:
        """Whether the investigation can terminate (not "unrecognized")."""
        return self.outcome != DecisionOutcome.UNRECOGNIZED


def decide(
    detect_value: float,
    margin: float,
    gamma: float = 0.6,
) -> DecisionOutcome:
    """Equation 10: classify a suspect from the aggregate and the margin of error."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if gamma <= detect_value - margin <= 1.0:
        return DecisionOutcome.WELL_BEHAVING
    if -1.0 <= detect_value + margin <= -gamma:
        return DecisionOutcome.INTRUDER
    return DecisionOutcome.UNRECOGNIZED


def evaluate_investigation(
    suspect: str,
    answers: Mapping[str, float],
    trust: Mapping[str, float],
    gamma: float = 0.6,
    confidence_level: float = 0.95,
    use_trust_weighting: bool = True,
) -> DetectionDecision:
    """Run Eq. 8 + Eq. 9 + Eq. 10 on one round of investigation answers.

    ``use_trust_weighting=False`` switches to the unweighted vote, which is
    the ablation configuration used to quantify the benefit of the trust
    system.
    """
    trust_used = {k: trust.get(k, 0.0) for k in answers}
    responders = sorted(answers)
    samples, weights = _samples_and_weights(responders, answers, trust_used)
    return decide_round(suspect, dict(answers), trust_used, responders, samples,
                        weights, gamma, confidence_level, use_trust_weighting)


def decide_round(
    suspect: str,
    answers: Dict[str, float],
    trust_used: Dict[str, float],
    responders: Sequence[str],
    samples: List[float],
    weights: List[float],
    gamma: float,
    confidence_level: float,
    use_trust_weighting: bool,
) -> DetectionDecision:
    """Eqs. 8–10 on a round whose samples and weights are already built.

    ``responders`` is sorted, and ``samples`` and ``weights`` are each
    responder's answer and clipped trust in that order, as
    :func:`evaluate_investigation` builds them;
    :meth:`repro.core.investigation.CooperativeInvestigator.run_round`
    builds them in its query loop.  The decision keeps ``answers`` and
    ``trust_used`` as given.  Eq. 8 and Eq. 9 take one pass each and
    share the weights' sum.
    """
    if use_trust_weighting:
        # One weight list for both equations: the interval is trust-weighted
        # as well, so answers coming from nodes whose trust has collapsed
        # do not keep the interval wide forever.
        total = sum(weights)
        detect_value = _weighted_detection(responders, samples, weights, total)
        interval = ConfidenceInterval(
            center=detect_value,
            margin=weighted_margin(samples, weights, total, confidence_level),
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
        answers=answers,
        trust_used=trust_used,
    )
