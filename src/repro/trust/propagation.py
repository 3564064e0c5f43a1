"""Trust propagation through recommendations (Equations 6 and 7).

When the observer's own evidence about a subject is insufficient, trust is
built from other nodes' recommendations:

* **Concatenated propagation** (Eq. 6): trust through a single third party,
  ``Tc^{A,I} = R^{A,S} · T^{S,I}``, where ``R^{A,S}`` is how much ``A`` trusts
  the recommendations issued by ``S``.
* **Multipath propagation** (Eq. 7): several recommenders are combined with
  weights proportional to the recommendation trust placed in each of them,
  ``Tm^{A,I} = Σ_i w_i · R^{A,S_i} · T^{S_i,I}`` with
  ``w_i = 1 / Σ_j R^{A,S_j}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class Recommendation:
    """A recommendation received from ``recommender`` about ``subject``."""

    recommender: str
    subject: str
    trust_value: float


def concatenated_trust(recommendation_trust: float, recommended_trust: float) -> float:
    """Equation 6: trust in ``I`` built through a single third party ``S``."""
    return recommendation_trust * recommended_trust


def normalised_weights(recommendation_trusts: Sequence[float]) -> List[float]:
    """Weights ``w_i = 1 / Σ_j R^{A,S_j}`` of Eq. 7 (all equal by construction).

    When every recommendation trust is zero — or negligibly small — (or the
    list is empty) the weights are zero, meaning the recommendations carry no
    information at all.
    """
    total = sum(recommendation_trusts)
    if total <= 1e-12:
        return [0.0 for _ in recommendation_trusts]
    return [1.0 / total for _ in recommendation_trusts]


def multipath_trust(
    recommendations: Sequence[Tuple[float, float]],
) -> float:
    """Equation 7: combine multiple recommendations.

    ``recommendations`` is a sequence of ``(R^{A,S_i}, T^{S_i,I})`` pairs.  The
    result is the recommendation-trust-weighted mean of the products
    ``R^{A,S_i}·T^{S_i,I}``; with no usable recommendation the function
    returns 0 (maximal uncertainty).
    """
    if not recommendations:
        return 0.0
    rec_trusts = [r for r, _ in recommendations]
    weights = normalised_weights(rec_trusts)
    return sum(w * r * t for w, (r, t) in zip(weights, recommendations))


def combine_recommendations(
    recommendations: Sequence[Recommendation],
    recommendation_trust: Mapping[str, float],
    default_recommendation_trust: float = 0.4,
) -> float:
    """Helper applying Eq. 7 to :class:`Recommendation` objects.

    ``recommendation_trust`` maps recommender id to ``R^{A,S}``; missing
    recommenders fall back to ``default_recommendation_trust``.
    """
    pairs = [
        (
            recommendation_trust.get(rec.recommender, default_recommendation_trust),
            rec.trust_value,
        )
        for rec in recommendations
    ]
    return multipath_trust(pairs)


def blended_trust(
    direct_trust: float,
    propagated_trust: float,
    direct_weight: float = 0.7,
) -> float:
    """Blend first-hand and propagated trust (Property 5).

    First-hand evidence is privileged: ``direct_weight`` (default 0.7) of the
    result comes from the observer's own trust value.
    """
    if not 0.0 <= direct_weight <= 1.0:
        raise ValueError("direct_weight must be in [0, 1]")
    return direct_weight * direct_trust + (1.0 - direct_weight) * propagated_trust


def transitive_trust_chain(trust_values: Sequence[float]) -> float:
    """Trust along a chain A→S1→…→I obtained by repeated concatenation (Eq. 6).

    Because every factor is ≤ 1 in absolute value, trust can only shrink along
    the chain, which matches the intuition that longer recommendation chains
    are less reliable.
    """
    result = 1.0
    for value in trust_values:
        result = concatenated_trust(result, value)
    return result


def recommendation_matrix_trust(
    subject: str,
    recommenders: Mapping[str, Mapping[str, float]],
    recommendation_trust: Mapping[str, float],
    default_recommendation_trust: float = 0.4,
) -> float:
    """Apply Eq. 7 from a recommender→(subject→trust) matrix.

    Recommenders that do not express an opinion about ``subject`` are skipped.
    """
    pairs: List[Tuple[float, float]] = []
    for recommender, opinions in recommenders.items():
        if subject not in opinions:
            continue
        rec_trust = recommendation_trust.get(recommender, default_recommendation_trust)
        pairs.append((rec_trust, opinions[subject]))
    return multipath_trust(pairs)
