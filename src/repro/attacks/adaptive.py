"""Adaptive adversaries: attacks that observe the detector and react.

Every other attack in :mod:`repro.attacks` is an *open-loop* policy — a drop
probability, a lie mode, a schedule — fixed when the scenario is built.  This
module closes the loop: an adaptive attack taps the detector's own trust
surface through a read-only :class:`TrustProbe` and adjusts its behaviour
once per detection cycle, modelling an adversary that knows (or estimates)
how the paper's trust system scores it and rides just above the
classification threshold.

Three pieces:

* :class:`TrustProbe` — the feedback surface: a read-only view of one
  observer's :meth:`~repro.trust.manager.TrustManager.trust_of` for one
  subject.  Probes are the *only* channel an adaptive attack gets; they
  cannot mutate trust state.
* :class:`AdaptiveAttack` — the capability mixin: ``bind_probe()`` plus an
  ``observe(now)`` hook the driving loop calls once per detection cycle
  (netsim: after every ``detection_round``; oracle: after every round).
* Concrete adversaries: :class:`ThresholdRidingGrayhole` (throttles its drop
  probability against the observed trust headroom) and
  :class:`RotatingLiarClique` (one active liar per epoch, the rest honest,
  starving each liar's direct trust of harmful evidence).

``tests/test_attacks_adaptive.py`` drives a static grayhole and a threshold
rider through the same watchdog-style feedback loop and shows the rider
surviving ≥ 2× longer at a matched effective drop ratio.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.attacks.base import AttackSchedule
from repro.attacks.collusion import LiarClique
from repro.attacks.dropping import GrayholeAttack
from repro.trust.manager import TrustManager


class TrustProbe:
    """Read-only tap on one observer's trust table, for one subject.

    The probe captures only the ``trust_of`` bound method — never the
    manager itself — so an adaptive attack can *observe* how the detector
    scores it but has no handle to mutate trust state.  ``reads`` counts the
    taps, which the tests use to prove the feedback loop actually ran.
    """

    __slots__ = ("_trust_of", "subject", "reads")

    def __init__(self, trust_manager: TrustManager, subject: str) -> None:
        self._trust_of = trust_manager.trust_of
        self.subject = subject
        self.reads = 0

    def read(self) -> float:
        """The observer's current trust in the probed subject."""
        self.reads += 1
        return float(self._trust_of(self.subject))


class AdaptiveAttack:
    """Capability mixin of attacks that consume detector feedback.

    Mixed into a concrete :class:`~repro.attacks.base.Attack` subclass; the
    driving loop binds a :class:`TrustProbe` and calls :meth:`observe` once
    per detection cycle.  ``adaptation_log`` records every observation as
    ``(now, observed_trust, knob_value)`` so experiments can plot the policy
    trajectory.
    """

    def _init_adaptive(self, probe: Optional[TrustProbe] = None) -> None:
        self.probe = probe
        self.adaptation_log: List[Tuple[float, float, float]] = []

    def bind_probe(self, probe: TrustProbe) -> None:
        """Attach the feedback surface the policy reads each cycle."""
        self.probe = probe

    def observe(self, now: float) -> None:
        """Feedback hook, called once per detection cycle."""
        raise NotImplementedError


class ThresholdRidingGrayhole(GrayholeAttack, AdaptiveAttack):
    """Grayhole that paces its misconduct to ride the detection threshold.

    Each cycle the attacker reads its own trust as the victim sees it and
    rides a hysteresis band above the classification threshold:

    * trust at or below ``ride_threshold`` — the attack *pauses* (a manual
      ``deactivate``), relaying faithfully while the trust system's
      forgetting factor restores headroom;
    * trust back at ``resume_threshold`` — the attack resumes;
    * while active, the drop probability is additionally throttled between
      ``min_drop_probability`` and ``max_drop_probability`` proportionally
      to the headroom above ``ride_threshold`` (saturating at
      ``full_throttle_headroom``), so even the active windows back off as
      the margin thins.

    The pause windows keep :attr:`observed_drop_ratio` an *active-window*
    statistic (the base filter does not count paused traffic), which is what
    makes "matched effective drop ratio" comparisons against a static
    grayhole meaningful: both drop the same fraction of the traffic they
    attack; the rider merely picks its windows by watching its trust.
    """

    name = "threshold-grayhole"

    def __init__(
        self,
        max_drop_probability: float = 0.7,
        min_drop_probability: float = 0.0,
        ride_threshold: float = 0.3,
        resume_threshold: float = 0.38,
        full_throttle_headroom: float = 0.1,
        probe: Optional[TrustProbe] = None,
        message_types=None,
        victim_originators=None,
        schedule: Optional[AttackSchedule] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= min_drop_probability <= max_drop_probability <= 1.0:
            raise ValueError(
                "need 0 <= min_drop_probability <= max_drop_probability <= 1")
        if resume_threshold < ride_threshold:
            raise ValueError("resume_threshold must be >= ride_threshold")
        if full_throttle_headroom <= 0.0:
            raise ValueError("full_throttle_headroom must be positive")
        super().__init__(
            drop_probability=max_drop_probability,
            message_types=message_types,
            victim_originators=victim_originators,
            schedule=schedule,
            rng=rng,
        )
        self.max_drop_probability = max_drop_probability
        self.min_drop_probability = min_drop_probability
        self.ride_threshold = ride_threshold
        self.resume_threshold = resume_threshold
        self.full_throttle_headroom = full_throttle_headroom
        self.riding_paused = False
        self._init_adaptive(probe)

    def observe(self, now: float) -> None:
        if self.probe is None:
            return
        trust = self.probe.read()
        if self.riding_paused:
            if trust >= self.resume_threshold:
                self.riding_paused = False
                self.follow_schedule()
        elif trust <= self.ride_threshold:
            self.riding_paused = True
            self.deactivate()
        if not self.riding_paused:
            fraction = min(1.0, (trust - self.ride_threshold)
                           / self.full_throttle_headroom)
            self.drop_probability = (
                self.min_drop_probability
                + max(0.0, fraction)
                * (self.max_drop_probability - self.min_drop_probability))
        self.adaptation_log.append(
            (now, trust, 0.0 if self.riding_paused else self.drop_probability))


class RotatingLiarClique(LiarClique):
    """Clique whose *active* liar rotates per epoch; the rest stay honest.

    The investigator discounts a responder through its direct trust, the
    Eq. 8 weight of its answers: every answer that contradicts the majority
    is a harmful disagreement evidence (Eq. 5).  A rotating clique starves
    that trust of harmful evidence: each member lies in one epoch out of
    every ``len(members)``, so it takes disagreement evidence in that epoch
    alone and agreement evidence in the others, while every epoch still
    carries exactly one shielding answer.  The active member is the
    epoch-indexed entry of the sorted member roster, so rotation is
    deterministic and order-independent like the base clique's shared
    decision stream.
    """

    def member_decision(self, member_id: str, suspect: str, now: float) -> str:
        roster = sorted(m.member_id for m in self.members)
        if not roster:
            return self.decision(suspect, now)
        epoch = int(now // self.epoch_length)
        active = roster[epoch % len(roster)]
        if member_id != active:
            return "honest"
        return self.decision(suspect, now)

