"""Information-theoretic trust mapping (Sun et al., JSAC 2006).

The paper's trust system is "entropy-based": the uncertainty about a node's
behaviour is measured with the binary entropy of the probability that the
node acts correctly, and trust is derived from that entropy:

* ``T = 1 − H(p)`` when ``p ≥ 0.5`` (more likely good ⇒ positive trust),
* ``T = H(p) − 1`` when ``p < 0.5`` (more likely bad ⇒ negative trust).

Trust is therefore in ``[−1, 1]`` with ``T = 0`` at maximal uncertainty
(``p = 0.5``).  The CAP-OLSR baseline scores relays with this mapping; the
detector's own trust is the Eq. 5 value of :mod:`repro.trust.manager`.
"""

from __future__ import annotations

import math


def binary_entropy(p: float) -> float:
    """Binary entropy ``H(p)`` in bits, with the convention ``0·log0 = 0``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_trust_from_probability(p: float) -> float:
    """Map the probability of correct behaviour to an entropy-based trust value."""
    h = binary_entropy(p)
    if p >= 0.5:
        return 1.0 - h
    return h - 1.0
