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

The manager keeps its ``subject → value`` map in sorted subject order.  It
sorts only when a subject it did not know arrives (through
:meth:`~TrustManager.set_initial_trust`, :meth:`~TrustManager.update` or
:meth:`~TrustManager.update_all`), so a slot walks the map as it is,
:meth:`~TrustManager.known_subjects` and :meth:`~TrustManager.as_dict` are
plain copies, and :meth:`~TrustManager.trust_map` hands a caller the map to
read without a call per subject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.trust.evidence import TrustEvidence


def require_finite(instance) -> None:
    """Raise ``ValueError`` naming the first field of the dataclass
    ``instance`` that holds a NaN or an infinite float.

    A range check written as a comparison lets NaN through, since every
    comparison with NaN is false.
    """
    for item in fields(instance):
        value = getattr(instance, item.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{item.name} must be finite, got {value}")


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
        require_finite(self)
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
        #: subject → trust, in sorted subject order (see the module notes).
        self._values: Dict[str, float] = {}

    # -------------------------------------------------------------- accessors
    def known_subjects(self) -> List[str]:
        """Every node for which a trust value exists, sorted."""
        return list(self._values)

    def trust_of(self, subject: str) -> float:
        """Current trust value for ``subject`` (default when unknown)."""
        return self._values.get(subject, self.parameters.default_trust)

    def trust_map(self) -> Mapping[str, float]:
        """The live ``subject → trust`` map, in sorted subject order.

        For a reader that looks up many subjects at once, as an
        investigation round does: ``trust_map().get(s, default_trust)`` is
        :meth:`trust_of` without a call per subject.  The map changes with
        every update; never write to it.
        """
        return self._values

    def set_initial_trust(self, subject: str, value: float) -> None:
        """Initialise the trust of ``subject`` (used by the experiments'
        "randomly set initial trust" step)."""
        values = self._values
        if subject in values:
            values[subject] = self._clamp(value)
        else:
            self._admit(subject, self._clamp(value))

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
        values = self._values
        if subject not in values:
            self._admit(subject, self.parameters.default_trust)
        self._slot(((subject, values[subject]),), contributions)
        return values[subject]

    def update_all(self, contributions: Mapping[str, float]) -> Dict[str, float]:
        """Run one slot update for every known or contributing subject.

        ``contributions`` maps each subject that had evidence this slot to
        its summed ``α_j·e_j``.  Known subjects absent from it forget, so
        forgetting applies uniformly.  Subjects are updated in sorted order;
        the new values are returned in that order.
        """
        values = self._values
        if not values.keys() >= contributions.keys():
            default = self.parameters.default_trust
            for subject in contributions:
                if subject not in values:
                    self._admit(subject, default)
        self._slot(values.items(), contributions)
        return dict(values)

    def decay_all(self) -> Dict[str, float]:
        """Apply one slot of pure forgetting to every known subject."""
        return self.update_all({})

    def _admit(self, subject: str, value: float) -> None:
        """Add an unknown ``subject`` at ``value``, keeping the map sorted.

        A subject that sorts after every known one is appended; any other
        re-sorts the map in place, so a held :meth:`trust_map` stays live.
        """
        values = self._values
        last = next(reversed(values), None)
        values[subject] = value
        if last is not None and subject < last:
            items = sorted(values.items())
            values.clear()
            values.update(items)

    def _slot(self, items: Iterable[Tuple[str, float]],
              contributions: Mapping[str, float]) -> None:
        """Eq. 5 for the known ``(subject, value)`` ``items``, clamped to
        [minimum, maximum]."""
        params = self.parameters
        values = self._values
        default = params.default_trust
        minimum, maximum = params.minimum, params.maximum
        beta = params.beta
        anchor = (1.0 - beta) * default
        beta_recovery = params.beta_recovery
        if beta_recovery is not None:
            recovery_anchor = (1.0 - beta_recovery) * default
        for subject, value in items:
            # Default-anchored exponential forgetting: without evidence the
            # value relaxes toward the default; with evidence the α_j·e_j
            # term pushes it up or down from that anchor.  No evidence is a
            # contribution of 0.0.
            if subject in contributions:
                new_value = contributions[subject] + beta * value + anchor
            elif beta_recovery is not None and value < default:
                # Recovering from a below-default (e.g. former liar) value
                # with no fresh evidence is deliberately slower than
                # ordinary forgetting.
                new_value = 0.0 + beta_recovery * value + recovery_anchor
            else:
                new_value = 0.0 + beta * value + anchor
            # The clamp max(minimum, min(maximum, new_value)), inline.
            if not new_value < maximum:
                new_value = maximum
            if not new_value > minimum:
                new_value = minimum
            values[subject] = new_value

    # ---------------------------------------------------------------- helpers
    def _clamp(self, value: float) -> float:
        return max(self.parameters.minimum, min(self.parameters.maximum, value))

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of every subject's current trust value, sorted by subject."""
        return dict(self._values)
