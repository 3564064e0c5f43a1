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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.trust.evidence import TrustEvidence

#: Minimum number of subjects before ``update_all`` switches to the numpy
#: path.  Measured on the ``oracle-sweep`` benchmark shapes: per-subject
#: ``update`` calls are faster at 12 subjects, the array form 1.13–1.39×
#: faster at 48.
_VECTOR_THRESHOLD = 16


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
    #: When True, the update is anchored to ``default_trust``: the forgetting
    #: term pulls the value toward the default instead of toward zero.
    decay_to_default: bool = True
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


@dataclass
class TrustRecord:
    """Trust state kept about one subject node."""

    subject: str
    value: float
    updates: int = 0
    last_update_time: float = 0.0
    history: List[float] = field(default_factory=list)

    def snapshot(self) -> None:
        """Append the current value to the history (one point per slot)."""
        self.history.append(self.value)


class TrustManager:
    """Maintains the direct trust T(A, I) an observer holds about every subject."""

    def __init__(self, owner: str, parameters: Optional[TrustParameters] = None) -> None:
        self.owner = owner
        self.parameters = parameters or TrustParameters()
        self.parameters.validate()
        self._records: Dict[str, TrustRecord] = {}

    # -------------------------------------------------------------- accessors
    def known_subjects(self) -> List[str]:
        """Every node for which a trust record exists."""
        return sorted(self._records)

    def record_of(self, subject: str) -> TrustRecord:
        """Trust record for ``subject``, created at the default value if absent."""
        record = self._records.get(subject)
        if record is None:
            record = TrustRecord(subject=subject, value=self.parameters.default_trust)
            self._records[subject] = record
        return record

    def trust_of(self, subject: str) -> float:
        """Current trust value for ``subject`` (default when unknown)."""
        record = self._records.get(subject)
        return record.value if record else self.parameters.default_trust

    def set_initial_trust(self, subject: str, value: float) -> None:
        """Initialise the trust of ``subject`` (used by the experiments'
        "randomly set initial trust" step)."""
        clamped = self._clamp(value)
        self._records[subject] = TrustRecord(subject=subject, value=clamped)

    def history_of(self, subject: str) -> List[float]:
        """Per-slot trust history of ``subject`` (one value per update slot)."""
        record = self._records.get(subject)
        return list(record.history) if record else []

    # ---------------------------------------------------------------- updates
    def update(self, subject: str, evidences: Iterable[TrustEvidence],
               now: float = 0.0) -> float:
        """Apply Eq. 5 for one time slot and return the new trust value.

        ``evidences`` are the observations about ``subject`` collected during
        the slot; an empty iterable triggers pure forgetting (decay toward the
        default value when ``decay_to_default`` is set, plain β-scaling
        otherwise).
        """
        params = self.parameters
        record = self.record_of(subject)
        evidence_list = [e for e in evidences if e.subject == subject]

        contribution = 0.0
        for evidence in evidence_list:
            alpha = params.alpha_harmful if evidence.is_harmful else params.alpha_beneficial
            contribution += evidence.weighted(alpha)

        beta = params.beta
        if (
            not evidence_list
            and params.beta_recovery is not None
            and record.value < params.default_trust
        ):
            # Recovering from a below-default (e.g. former liar) value with no
            # fresh evidence is deliberately slower than ordinary forgetting.
            beta = params.beta_recovery

        if params.decay_to_default:
            # Default-anchored exponential forgetting: without evidence the
            # value relaxes toward the default; with evidence the α_j·e_j term
            # pushes it up or down from that anchor.
            new_value = contribution + beta * record.value + (1.0 - beta) * params.default_trust
        else:
            new_value = contribution + beta * record.value

        record.value = self._clamp(new_value)
        record.updates += 1
        record.last_update_time = now
        record.snapshot()
        return record.value

    def update_all(self, evidences_by_subject: Dict[str, List[TrustEvidence]],
                   now: float = 0.0) -> Dict[str, float]:
        """Run one slot update for every subject in the mapping.

        Subjects already known to the manager but absent from the mapping are
        updated with an empty evidence list so forgetting applies uniformly.

        On wide slots (>= 16 subjects) the per-subject Eq. 5 recurrences are
        evaluated as one numpy expression.  The array form reproduces the
        scalar arithmetic operation for operation — same grouping
        ``(contribution + β·T) + ((1−β)·T_default)``, same clamp order — so
        both paths yield bit-identical trust values; only the per-subject
        evidence contribution Σ_j α_j·e_j stays a sequential Python sum,
        because its accumulation order is part of the observable result.
        """
        subjects = sorted(set(evidences_by_subject) | set(self._records))
        if len(subjects) >= _VECTOR_THRESHOLD:
            return self._update_all_vector(subjects, evidences_by_subject, now)
        results: Dict[str, float] = {}
        for subject in subjects:
            results[subject] = self.update(
                subject, evidences_by_subject.get(subject, []), now=now
            )
        return results

    def _update_all_vector(
        self,
        subjects: Sequence[str],
        evidences_by_subject: Dict[str, List[TrustEvidence]],
        now: float,
    ) -> Dict[str, float]:
        """One Eq. 5 slot for every subject, as float64 array arithmetic.

        numpy is imported here, not at module level: importing it costs
        100–135 ms, which runs that only ever see narrow slots never pay.
        """
        import numpy as np

        params = self.parameters
        records = [self.record_of(subject) for subject in subjects]
        values = np.array([record.value for record in records], dtype=np.float64)
        contributions = np.zeros(len(records), dtype=np.float64)
        has_evidence = np.zeros(len(records), dtype=bool)
        for i, subject in enumerate(subjects):
            evidence_list = [
                e for e in evidences_by_subject.get(subject, []) if e.subject == subject
            ]
            if not evidence_list:
                continue
            has_evidence[i] = True
            contribution = 0.0
            for evidence in evidence_list:
                alpha = (
                    params.alpha_harmful if evidence.is_harmful else params.alpha_beneficial
                )
                contribution += evidence.weighted(alpha)
            contributions[i] = contribution

        beta = np.full(len(records), params.beta, dtype=np.float64)
        if params.beta_recovery is not None:
            beta[~has_evidence & (values < params.default_trust)] = params.beta_recovery
        if params.decay_to_default:
            new_values = (contributions + beta * values) + (
                (1.0 - beta) * params.default_trust
            )
        else:
            new_values = contributions + beta * values
        new_values = np.maximum(params.minimum, np.minimum(params.maximum, new_values))

        results: Dict[str, float] = {}
        for subject, record, new_value in zip(subjects, records, new_values):
            value = float(new_value)
            record.value = value
            record.updates += 1
            record.last_update_time = now
            record.history.append(value)
            results[subject] = value
        return results

    def decay_all(self, now: float = 0.0) -> Dict[str, float]:
        """Apply one slot of pure forgetting to every known subject."""
        return self.update_all({}, now=now)

    # ---------------------------------------------------------------- helpers
    def _clamp(self, value: float) -> float:
        return max(self.parameters.minimum, min(self.parameters.maximum, value))

    def normalised_trust(self, subject: str) -> float:
        """Trust rescaled to ``[0, 1]`` regardless of the configured bounds."""
        params = self.parameters
        span = params.maximum - params.minimum
        return (self.trust_of(subject) - params.minimum) / span

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of every subject's current trust value."""
        return {subject: record.value for subject, record in sorted(self._records.items())}
