"""Tests for the confidence interval (Eq. 9)."""

from __future__ import annotations

import math

import pytest

from repro.trust.confidence import (
    ConfidenceInterval,
    confidence_interval,
    effective_sample_size,
    margin_of_error,
    sample_standard_deviation,
    weighted_margin_of_error,
    weighted_sample_standard_deviation,
    z_value,
)


def test_z_value_reference_points():
    assert z_value(0.95) == pytest.approx(1.96, abs=0.01)
    assert z_value(0.90) == pytest.approx(1.645, abs=0.01)
    assert z_value(0.99) == pytest.approx(2.576, abs=0.01)


def test_z_value_monotone_in_confidence_level():
    assert z_value(0.99) > z_value(0.95) > z_value(0.90) > z_value(0.80)


def test_z_value_via_approximation_for_unusual_level():
    # 0.97 is not in the table; the approximation must still be sensible.
    assert z_value(0.95) < z_value(0.97) < z_value(0.99)


def test_z_value_rejects_invalid_levels():
    with pytest.raises(ValueError):
        z_value(0.0)
    with pytest.raises(ValueError):
        z_value(1.0)


def test_sample_standard_deviation_known_value():
    # Sample std of [1, -1] with n-1 denominator is sqrt(2).
    assert sample_standard_deviation([1.0, -1.0]) == pytest.approx(math.sqrt(2.0))


def test_sample_standard_deviation_small_samples_are_zero():
    assert sample_standard_deviation([]) == 0.0
    assert sample_standard_deviation([0.7]) == 0.0


def test_sample_standard_deviation_zero_for_identical_values():
    assert sample_standard_deviation([0.5] * 10) == 0.0


def test_margin_of_error_formula():
    samples = [1.0, -1.0, 1.0, -1.0]
    sigma = sample_standard_deviation(samples)
    expected = z_value(0.95) * sigma / math.sqrt(4)
    assert margin_of_error(samples, 0.95) == pytest.approx(expected)


def test_margin_of_error_empty_sample_is_zero():
    assert margin_of_error([], 0.95) == 0.0


def test_margin_shrinks_with_more_samples():
    small = margin_of_error([1.0, -1.0] * 2, 0.95)
    large = margin_of_error([1.0, -1.0] * 50, 0.95)
    assert large < small


def test_margin_grows_with_confidence_level():
    samples = [1.0, -1.0, 0.0, 1.0]
    assert margin_of_error(samples, 0.99) > margin_of_error(samples, 0.90)


def test_weighted_std_downweights_unreliable_samples():
    samples = [-1.0, -1.0, -1.0, 1.0]
    equal = weighted_sample_standard_deviation(samples, [1.0, 1.0, 1.0, 1.0])
    # The lone dissenting +1 comes from an almost-zero-weight responder.
    discounted = weighted_sample_standard_deviation(samples, [1.0, 1.0, 1.0, 0.01])
    assert discounted < equal


def test_weighted_std_falls_back_when_all_weights_zero():
    samples = [1.0, -1.0]
    assert weighted_sample_standard_deviation(samples, [0.0, 0.0]) == pytest.approx(
        sample_standard_deviation(samples))


def test_weighted_std_length_mismatch_raises():
    with pytest.raises(ValueError):
        weighted_sample_standard_deviation([1.0], [1.0, 2.0])
    # Eq. 9 checks the lengths before any branch: the all-zero-weight
    # fallback and the empty sample reject a mismatch too.
    for samples, weights in (([1.0, -1.0, 1.0], [0.0, 0.0]),
                             ([1.0, -1.0, 1.0], [1.0, 0.5]),
                             ([], [1.0])):
        with pytest.raises(ValueError):
            weighted_margin_of_error(samples, weights, 0.95)


def test_effective_sample_size():
    assert effective_sample_size([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0)
    assert effective_sample_size([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert effective_sample_size([]) == 0.0


def test_weighted_margin_tightens_as_liar_weights_vanish():
    samples = [-1.0] * 10 + [1.0] * 4
    full_weights = [0.5] * 14
    shrunk_weights = [0.5] * 10 + [0.01] * 4
    assert weighted_margin_of_error(samples, shrunk_weights, 0.95) < \
        weighted_margin_of_error(samples, full_weights, 0.95)


def test_weighted_margin_empty_and_zero_weight_fallback():
    assert weighted_margin_of_error([], [], 0.95) == 0.0
    samples = [1.0, -1.0]
    assert weighted_margin_of_error(samples, [0.0, 0.0], 0.95) == pytest.approx(
        margin_of_error(samples, 0.95))


def test_confidence_interval_object():
    interval = confidence_interval([1.0, -1.0, 1.0, -1.0], center=0.0, confidence_level=0.95)
    assert isinstance(interval, ConfidenceInterval)
    assert interval.lower == pytest.approx(-interval.margin)
    assert interval.upper == pytest.approx(interval.margin)
    assert interval.width == pytest.approx(2 * interval.margin)
    assert interval.sample_size == 4
    assert interval.contains(0.0)
    assert not interval.contains(10.0)


def test_confidence_interval_conclusiveness():
    tight = ConfidenceInterval(center=-0.9, margin=0.05, confidence_level=0.95, sample_size=10)
    wide = ConfidenceInterval(center=-0.9, margin=0.5, confidence_level=0.95, sample_size=3)
    assert tight.is_conclusive(0.6)
    assert not wide.is_conclusive(0.6)
    positive = ConfidenceInterval(center=0.9, margin=0.1, confidence_level=0.95, sample_size=10)
    assert positive.is_conclusive(0.6)
