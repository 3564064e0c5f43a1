"""Confidence interval on the detection result (Equation 9, Section IV-C).

Given the sample of evidences ``e_1 … e_n`` gathered during an investigation,
the margin of error is ``ε = z · σ / √n`` where ``σ`` is the sample standard
deviation and ``z`` the standard-normal quantile of the configured confidence
level.  The confidence interval around the detection aggregate ``Detect`` is
``[Detect − ε, Detect + ε]`` and feeds the three-way decision rule (Eq. 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Two-sided standard-normal quantiles for the usual confidence levels.
Z_TABLE = {
    0.80: 1.2815515655,
    0.90: 1.6448536270,
    0.95: 1.9599639845,
    0.98: 2.3263478740,
    0.99: 2.5758293035,
    0.995: 2.8070337683,
    0.999: 3.2905267315,
}


def z_value(confidence_level: float) -> float:
    """Standard-normal quantile ``z`` for a two-sided confidence level.

    Exact values are returned for the levels in :data:`Z_TABLE`; other levels
    in ``(0, 1)`` are obtained with a rational approximation of the inverse
    normal CDF (Acklam's method), which is accurate to ~1e-9 — far below the
    precision the decision rule needs.
    """
    if not 0.0 < confidence_level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {confidence_level}")
    exact = Z_TABLE.get(confidence_level)
    if exact is not None:
        return exact
    for level, z in Z_TABLE.items():
        if math.isclose(level, confidence_level, abs_tol=1e-9):
            return z
    # Two-sided: quantile at (1 + cl) / 2.
    return _inverse_normal_cdf((1.0 + confidence_level) / 2.0)


def _inverse_normal_cdf(p: float) -> float:
    """Acklam's rational approximation of the inverse standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


def sample_standard_deviation(samples: Sequence[float]) -> float:
    """Sample standard deviation ``σ`` with the ``n − 1`` denominator.

    Returns 0 for samples of size 0 or 1 (no spread can be estimated), which
    produces a zero margin of error — the decision is then based on the
    aggregate alone, as the paper does when all evidences agree.
    """
    n = len(samples)
    if n < 2:
        return 0.0
    mean = sum(samples) / n
    variance = sum([(x - mean) ** 2 for x in samples]) / (n - 1)
    return math.sqrt(variance)


def margin_of_error(samples: Sequence[float], confidence_level: float = 0.95) -> float:
    """Equation 9: ``ε = z · σ / √n`` (0 when the sample is empty)."""
    n = len(samples)
    if n == 0:
        return 0.0
    sigma = sample_standard_deviation(samples)
    return z_value(confidence_level) * sigma / math.sqrt(n)


def weighted_sample_standard_deviation(
    samples: Sequence[float], weights: Sequence[float]
) -> float:
    """Reliability-weighted sample standard deviation.

    Evidence provided by low-trust nodes should barely widen the confidence
    interval: the spread is computed around the weighted mean with the
    (normalised) trust values as reliability weights.  Falls back to the
    unweighted estimator when every weight is zero.
    """
    _check_lengths(samples, weights)
    return _weighted_sigma(samples, weights, sum(weights),
                           effective_sample_size(weights))


def _check_lengths(samples: Sequence[float], weights: Sequence[float]) -> None:
    if len(samples) != len(weights):
        raise ValueError("samples and weights must have the same length")


def _weighted_sigma(samples: Sequence[float], weights: Sequence[float],
                    total: float, n_eff: float) -> float:
    """σ_w from the weights' sum ``total`` and effective sample size ``n_eff``."""
    if total <= 0.0:
        return sample_standard_deviation(samples)
    normalised = [w / total for w in weights]
    mean = sum([w * x for w, x in zip(normalised, samples)])
    variance = sum([w * (x - mean) ** 2 for w, x in zip(normalised, samples)])
    # Bessel-style correction using the effective sample size.
    if n_eff > 1.0:
        variance *= n_eff / (n_eff - 1.0)
    return math.sqrt(variance)


def effective_sample_size(weights: Sequence[float]) -> float:
    """Kish effective sample size ``(Σw)² / Σw²`` (0 for all-zero weights)."""
    return _kish(sum(weights), sum([w * w for w in weights]))


def _kish(total: float, squares: float) -> float:
    if squares <= 0.0:
        return 0.0
    return (total * total) / squares


def weighted_margin_of_error(
    samples: Sequence[float],
    weights: Sequence[float],
    confidence_level: float = 0.95,
) -> float:
    """Trust-weighted variant of Eq. 9: ``ε = z · σ_w / √n_eff``.

    Low-trust responders contribute little to both the spread and the
    effective sample size, so the interval tightens as the liars' trust —
    and hence their weight — shrinks across investigation rounds.  ``Σw``
    and ``Σw²`` are computed once; mismatched lengths raise ``ValueError``
    on every path.
    """
    _check_lengths(samples, weights)
    return weighted_margin(samples, weights, sum(weights), confidence_level)


def weighted_margin(samples: Sequence[float], weights: Sequence[float],
                    total: float, confidence_level: float) -> float:
    """:func:`weighted_margin_of_error` of index-aligned ``samples`` and
    ``weights`` whose sum ``total`` the caller already holds (Eq. 8 needs
    it too).  The caller guarantees the equal lengths."""
    if not samples:
        return 0.0
    n_eff = _kish(total, sum([w * w for w in weights]))
    if n_eff <= 0.0:
        return margin_of_error(samples, confidence_level)
    sigma = _weighted_sigma(samples, weights, total, n_eff)
    return z_value(confidence_level) * sigma / math.sqrt(n_eff)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a point estimate."""

    center: float
    margin: float
    confidence_level: float
    sample_size: int

    @property
    def lower(self) -> float:
        """Lower bound of the interval."""
        return self.center - self.margin

    @property
    def upper(self) -> float:
        """Upper bound of the interval."""
        return self.center + self.margin

    @property
    def width(self) -> float:
        """Total width of the interval."""
        return 2.0 * self.margin

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls inside the interval."""
        return self.lower <= value <= self.upper

    def is_conclusive(self, threshold: float) -> bool:
        """Whether the whole interval lies beyond ``±threshold``.

        Used by the decision rule: only when the interval does not straddle
        the undecided region can the investigation be terminated.
        """
        return self.lower >= threshold or self.upper <= -threshold


def confidence_interval(
    samples: Sequence[float],
    center: float,
    confidence_level: float = 0.95,
) -> ConfidenceInterval:
    """Build the confidence interval around ``center`` from the evidence sample."""
    return ConfidenceInterval(
        center=center,
        margin=margin_of_error(samples, confidence_level),
        confidence_level=confidence_level,
        sample_size=len(samples),
    )
