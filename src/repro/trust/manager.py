"""Direct trust maintenance (Equation 5 of the paper).

A node ``A`` keeps, for every other node ``I`` it interacts with, a trust
value updated once per time slot Δt::

    T^{A,I}_{Δt} = Σ_j α_j · e^{A,I}_j  +  β · T^{A,I}_{Δ(t−1)}

where the ``e_j`` are the evidences collected about ``I`` during the slot,
``α_j`` reflects their gravity/reputability and freshness, and ``β`` is the
forgetting factor that privileges fresh activity over stale activity.

Two refinements are made explicit here because the paper's figures require
them:

* Trust values live in ``[minimum, maximum]`` (default ``[0, 1]``) with a
  configurable default/initial value (0.4 in the paper's experiments).
* With no evidence at all, the forgetting factor pulls the value back toward
  the default: ``T ← β·T + (1−β)·T_default``.  This is what Figure 2 shows —
  former liars slowly *recover* toward the default after the attack ceases,
  while previously trusted nodes decay back down to it.

The manager keeps one float per subject and nothing per slot, so its memory
grows with the subjects it knows, not with the slots it has updated.  A
caller that needs a trajectory records the values :meth:`TrustManager.update`
returns, as the experiment drivers' round records do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.trust.evidence import TrustEvidence


@dataclass
class TrustParameters:
    """Tunable parameters of the trust system."""

    #: Weighting factor applied to beneficial evidences (α for e_j > 0).
    alpha_beneficial: float = 0.04
    #: Weighting factor applied to harmful evidences (α for e_j < 0); larger
    #: than the beneficial one, which is the "defensive" design of the paper.
    alpha_harmful: float = 0.08
    #: Forgetting factor β privileging fresh evidences.
    beta: float = 0.95
    #: Default (initial) trust assigned to unknown nodes; 0.4 in the paper.
    default_trust: float = 0.4
    #: Lower / upper bounds of the trust value.
    minimum: float = 0.0
    maximum: float = 1.0
    #: Optional slower forgetting factor applied when a node *recovers* from a
    #: trust value below the default with no new evidence.  This implements
    #: the paper's defensive behaviour: a former liar "demands a long
    #: misconduct-less duration" before being trusted again.  ``None`` reuses
    #: ``beta``.
    beta_recovery: Optional[float] = None

    def validate(self) -> None:
        """Raise ``ValueError`` when the parameter combination is inconsistent."""
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.beta_recovery is not None and not 0.0 <= self.beta_recovery <= 1.0:
            raise ValueError("beta_recovery must be in [0, 1]")
        if self.minimum >= self.maximum:
            raise ValueError("minimum must be strictly below maximum")
        if not self.minimum <= self.default_trust <= self.maximum:
            raise ValueError("default_trust must lie within [minimum, maximum]")
        if self.alpha_beneficial < 0 or self.alpha_harmful < 0:
            raise ValueError("alpha factors must be non-negative")


class TrustManager:
    """Maintains the direct trust T(A, I) an observer holds about every subject."""

    def __init__(self, owner: str, parameters: Optional[TrustParameters] = None) -> None:
        self.owner = owner
        self.parameters = parameters or TrustParameters()
        self.parameters.validate()
        self._values: Dict[str, float] = {}

    # -------------------------------------------------------------- accessors
    def known_subjects(self) -> List[str]:
        """Every node for which a trust value exists."""
        return sorted(self._values)

    def trust_of(self, subject: str) -> float:
        """Current trust value for ``subject`` (default when unknown)."""
        return self._values.get(subject, self.parameters.default_trust)

    def set_initial_trust(self, subject: str, value: float) -> None:
        """Initialise the trust of ``subject`` (used by the experiments'
        "randomly set initial trust" step)."""
        self._values[subject] = self._clamp(value)

    # ---------------------------------------------------------------- updates
    def update(self, subject: str, evidences: Iterable[TrustEvidence]) -> float:
        """Apply Eq. 5 for one time slot and return the new trust value.

        ``evidences`` are the observations about ``subject`` collected during
        the slot; an empty iterable triggers pure forgetting, a relaxation
        toward the default value.
        """
        params = self.parameters
        value = self.trust_of(subject)
        evidence_list = [e for e in evidences if e.subject == subject]

        contribution = 0.0
        for evidence in evidence_list:
            alpha = params.alpha_harmful if evidence.is_harmful else params.alpha_beneficial
            contribution += evidence.weighted(alpha)

        beta = params.beta
        if (
            not evidence_list
            and params.beta_recovery is not None
            and value < params.default_trust
        ):
            # Recovering from a below-default (e.g. former liar) value with no
            # fresh evidence is deliberately slower than ordinary forgetting.
            beta = params.beta_recovery

        # Default-anchored exponential forgetting: without evidence the value
        # relaxes toward the default; with evidence the α_j·e_j term pushes it
        # up or down from that anchor.
        new_value = self._clamp(
            contribution + beta * value + (1.0 - beta) * params.default_trust)
        self._values[subject] = new_value
        return new_value

    def update_all(
        self, evidences_by_subject: Dict[str, List[TrustEvidence]]
    ) -> Dict[str, float]:
        """Run one slot update for every subject in the mapping.

        Subjects already known to the manager but absent from the mapping are
        updated with an empty evidence list so forgetting applies uniformly.
        Subjects are updated in sorted order, one :meth:`update` each.
        """
        subjects = sorted(set(evidences_by_subject) | set(self._values))
        return {
            subject: self.update(subject, evidences_by_subject.get(subject, []))
            for subject in subjects
        }

    def decay_all(self) -> Dict[str, float]:
        """Apply one slot of pure forgetting to every known subject."""
        return self.update_all({})

    # ---------------------------------------------------------------- helpers
    def _clamp(self, value: float) -> float:
        return max(self.parameters.minimum, min(self.parameters.maximum, value))

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of every subject's current trust value."""
        return dict(sorted(self._values.items()))
