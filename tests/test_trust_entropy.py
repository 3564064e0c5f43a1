"""Tests for the entropy-based trust mapping."""

from __future__ import annotations

import pytest

from repro.trust.entropy import binary_entropy, entropy_trust_from_probability


def test_binary_entropy_extremes_and_midpoint():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)


def test_binary_entropy_symmetric():
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7))


def test_binary_entropy_rejects_invalid_probability():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_entropy_trust_reference_points():
    assert entropy_trust_from_probability(1.0) == pytest.approx(1.0)
    assert entropy_trust_from_probability(0.0) == pytest.approx(-1.0)
    assert entropy_trust_from_probability(0.5) == pytest.approx(0.0)


def test_entropy_trust_sign_follows_probability():
    assert entropy_trust_from_probability(0.9) > 0
    assert entropy_trust_from_probability(0.1) < 0


def test_entropy_trust_antisymmetric():
    assert entropy_trust_from_probability(0.8) == pytest.approx(
        -entropy_trust_from_probability(0.2))


def test_entropy_trust_monotone_in_probability():
    values = [entropy_trust_from_probability(p / 20.0) for p in range(21)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
