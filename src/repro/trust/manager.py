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

A slot is one pass over plain floats.  :meth:`TrustManager.update_all` takes
each subject's *contribution* ``Σ_j α_j·e_j`` (summed by the caller, which
knows its evidences, from 0.0 in evidence order) and runs Eq. 5 with the
clamp inline over every known or contributing subject; a subject without a
contribution forgets.  :meth:`TrustManager.update` reduces an evidence list
to one contribution and runs the same step for one subject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

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

    def alpha_for(self, value: float) -> float:
        """Weighting factor α of an evidence of ``value``: harmful evidences
        (``value < 0``, Property 1) take ``alpha_harmful``."""
        return self.alpha_harmful if value < 0.0 else self.alpha_beneficial


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
        the slot (evidences about another subject are ignored); an empty
        iterable triggers pure forgetting, a relaxation toward the default
        value.
        """
        alpha_for = self.parameters.alpha_for
        contributions: Dict[str, float] = {}
        for evidence in evidences:
            if evidence.subject == subject:
                contributions[subject] = contributions.get(subject, 0.0) + \
                    evidence.weighted(alpha_for(evidence.value))
        return self._slot((subject,), contributions)[subject]

    def update_all(self, contributions: Mapping[str, float]) -> Dict[str, float]:
        """Run one slot update for every known or contributing subject.

        ``contributions`` maps each subject that had evidence this slot to
        its summed ``α_j·e_j``.  Known subjects absent from it forget, so
        forgetting applies uniformly.  Subjects are updated in sorted order;
        the new values are returned in that order.
        """
        return self._slot(sorted(self._values.keys() | contributions.keys()),
                          contributions)

    def decay_all(self) -> Dict[str, float]:
        """Apply one slot of pure forgetting to every known subject."""
        return self.update_all({})

    def _slot(self, subjects: Iterable[str],
              contributions: Mapping[str, float]) -> Dict[str, float]:
        """Eq. 5 for ``subjects``, in order, clamped to [minimum, maximum]."""
        params = self.parameters
        values = self._values
        default = params.default_trust
        minimum, maximum = params.minimum, params.maximum
        beta = params.beta
        anchor = (1.0 - beta) * default
        beta_recovery = params.beta_recovery
        if beta_recovery is not None:
            recovery_anchor = (1.0 - beta_recovery) * default
        updated: Dict[str, float] = {}
        for subject in subjects:
            value = values.get(subject, default)
            contribution = contributions.get(subject)
            slot_beta, slot_anchor = beta, anchor
            if contribution is None:
                contribution = 0.0
                if beta_recovery is not None and value < default:
                    # Recovering from a below-default (e.g. former liar)
                    # value with no fresh evidence is deliberately slower
                    # than ordinary forgetting.
                    slot_beta, slot_anchor = beta_recovery, recovery_anchor
            # Default-anchored exponential forgetting: without evidence the
            # value relaxes toward the default; with evidence the α_j·e_j
            # term pushes it up or down from that anchor.
            new_value = contribution + slot_beta * value + slot_anchor
            # The clamp max(minimum, min(maximum, new_value)), inline.
            if not new_value < maximum:
                new_value = maximum
            if not new_value > minimum:
                new_value = minimum
            values[subject] = updated[subject] = new_value
        return updated

    # ---------------------------------------------------------------- helpers
    def _clamp(self, value: float) -> float:
        return max(self.parameters.minimum, min(self.parameters.maximum, value))

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of every subject's current trust value."""
        return dict(sorted(self._values.items()))
