"""CAP-OLSR baseline (Babu et al., ICON 2008).

CAP-OLSR protects OLSR against collusion attacks with an information-theoretic
trust system: a node ``A`` that selected ``I`` as MPR asks its 1- and 2-hop
neighbours whether ``I`` actually relays its TC messages; from the returned
observations it computes the entropy-based trust of ``I`` and excludes ``I``
from its MPR set when that trust falls below a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.trust.entropy import entropy_trust_from_probability


@dataclass
class RelayObservation:
    """One answer to "does MPR ``relay`` forward my TC messages?"."""

    observer: str
    relay: str
    relayed: bool


class CapOlsrTrust:
    """Entropy-based relay trust as used by CAP-OLSR.

    Observations are aggregated into a relaying probability per MPR (with
    Laplace smoothing); the probability is mapped to trust through the
    entropy trust function.  :class:`CapOlsrDetector` classifies a relay
    whose trust falls below its exclusion threshold as an intruder.
    """

    def __init__(self, owner: str,
                 prior_positive: float = 1.0, prior_negative: float = 1.0) -> None:
        self.owner = owner
        self.prior_positive = prior_positive
        self.prior_negative = prior_negative
        self._positive: Dict[str, int] = {}
        self._negative: Dict[str, int] = {}

    # ------------------------------------------------------------ observations
    def add_observation(self, observation: RelayObservation) -> None:
        """Record one relay observation."""
        if observation.relayed:
            self._positive[observation.relay] = self._positive.get(observation.relay, 0) + 1
        else:
            self._negative[observation.relay] = self._negative.get(observation.relay, 0) + 1

    # ----------------------------------------------------------------- queries
    def relay_probability(self, relay: str) -> float:
        """Smoothed probability that ``relay`` forwards the owner's traffic."""
        positive = self._positive.get(relay, 0)
        negative = self._negative.get(relay, 0)
        return (positive + self.prior_positive) / (
            positive + negative + self.prior_positive + self.prior_negative
        )

    def trust_of(self, relay: str) -> float:
        """Entropy-based trust of ``relay`` in ``[-1, 1]``."""
        return entropy_trust_from_probability(self.relay_probability(relay))


@dataclass
class CapOlsrDetector:
    """Round-based adapter exposing the same interface as the paper's detector.

    CAP-OLSR does not weight answers by trust: every observation counts the
    same, and colluding liars directly bias the relaying probability.  This is
    the property the comparison benches highlight: with many liars CAP-OLSR's
    trust in the attacker stays higher than the paper's trust-weighted
    aggregate.
    """

    owner: str
    exclusion_threshold: float = 0.0
    trust: CapOlsrTrust = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.trust is None:
            self.trust = CapOlsrTrust(self.owner)

    def process_round(self, suspect: str, answers: Mapping[str, Optional[bool]]) -> float:
        """Feed one round of answers about ``suspect``; returns its new trust.

        ``answers`` maps responder → True (relay/link confirmed), False
        (denied) or None (no answer, ignored).
        """
        for responder, answer in answers.items():
            if answer is None:
                continue
            self.trust.add_observation(
                RelayObservation(observer=responder, relay=suspect, relayed=answer)
            )
        return self.trust.trust_of(suspect)

    def classify(self, suspect: str) -> str:
        """"intruder" when the suspect's trust is below the threshold, else "well-behaving"."""
        if self.trust.trust_of(suspect) < self.exclusion_threshold:
            return "intruder"
        return "well-behaving"
