"""Tests for the adaptive adversary tier: trust probes, threshold riding,
rotating cliques, a closed drop-feedback loop and the per-node attack RNG
derivation."""

from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import pytest

from repro.attacks import (
    AdaptiveAttack,
    GrayholeAttack,
    LiarBehavior,
    RotatingLiarClique,
    ThresholdRidingGrayhole,
    TrustProbe,
)
from repro.seeding import stable_seed
from repro.trust.evidence import EvidenceKind, TrustEvidence
from repro.trust.manager import TrustManager, TrustParameters


class _Router:
    """Minimal routing stub the attacks install on."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.forward_filters = []
        self.answer_mutators = []
        self.now = 0.0


def _drop_ratio(run: "DropLoopResult") -> float:
    """Fraction of the messages dropped in the cycles the attack was active."""
    drops = sum(r.drops for r in run.records if r.attacking)
    relays = sum(r.relays for r in run.records if r.attacking)
    return drops / (drops + relays)


# ----------------------------------- closed loop: drop attack vs trust observer
@dataclass
class DropCycleRecord:
    """One detection cycle of the feedback loop."""

    cycle: int
    drops: int
    relays: int
    trust: float
    drop_probability: float
    #: Whether the attack was active during the cycle's opportunities.
    attacking: bool


@dataclass
class DropLoopResult:
    """Outcome of :func:`run_drop_feedback_loop`."""

    records: List[DropCycleRecord] = field(default_factory=list)
    #: First cycle at which the observer's trust crossed the classification
    #: threshold (``None`` = the attacker survived the whole run).
    detected_cycle: Optional[int] = None

    def time_to_detect(self, horizon: Optional[int] = None) -> float:
        """Cycles until classification; undetected runs count as ``horizon``
        (default: the number of simulated cycles)."""
        if self.detected_cycle is not None:
            return float(self.detected_cycle + 1)
        return float(horizon if horizon is not None else len(self.records))

    @property
    def effective_drop_ratio(self) -> float:
        """Fraction of relay opportunities actually dropped over the run."""
        drops = sum(r.drops for r in self.records)
        total = sum(r.drops + r.relays for r in self.records)
        return drops / total if total else 0.0


def run_drop_feedback_loop(
    attack: GrayholeAttack,
    cycles: int = 40,
    opportunities: int = 20,
    classification_threshold: float = 0.25,
    trust_parameters: Optional[TrustParameters] = None,
    observer: str = "victim",
    attacker: str = "attacker",
) -> DropLoopResult:
    """Drive a (possibly adaptive) drop attack against a watchdog observer.

    Each of the ``cycles`` detection cycles offers the installed attack
    ``opportunities`` relay opportunities through its real forward filter;
    the observer converts the observed drop/relay counts into
    ``TRAFFIC_DROPPED``/``TRAFFIC_RELAYED`` evidence, runs one Eq. 5 slot,
    and — when the attack is adaptive — feeds the new trust value back
    through a read-only :class:`TrustProbe`.  The attacker counts as
    detected on the first cycle its trust reaches
    ``classification_threshold``.
    """
    trust = TrustManager(observer, trust_parameters)
    router = _Router(attacker)
    attack.install(router)
    if isinstance(attack, AdaptiveAttack) and attack.probe is None:
        attack.bind_probe(TrustProbe(trust, attacker))

    result = DropLoopResult()
    for cycle in range(cycles):
        router.now = float(cycle)
        attacking = attack.is_active(router.now)
        drops = relays = 0
        for _ in range(opportunities):
            if attack._filter(None, observer, router):
                relays += 1
            else:
                drops += 1
        evidences = []
        if drops:
            evidences.append(TrustEvidence(
                observer=observer, subject=attacker,
                kind=EvidenceKind.TRAFFIC_DROPPED,
                value=-drops / opportunities))
        if relays:
            evidences.append(TrustEvidence(
                observer=observer, subject=attacker,
                kind=EvidenceKind.TRAFFIC_RELAYED,
                value=relays / opportunities))
        trust.update(attacker, evidences)
        value = trust.trust_of(attacker)
        if isinstance(attack, AdaptiveAttack):
            attack.observe(float(cycle))
        result.records.append(DropCycleRecord(
            cycle=cycle, drops=drops, relays=relays, trust=value,
            drop_probability=attack.drop_probability, attacking=attacking))
        if result.detected_cycle is None and value <= classification_threshold:
            result.detected_cycle = cycle
    return result


# ------------------------------------------------------------------ TrustProbe
def test_trust_probe_reads_the_observers_trust_and_counts_taps():
    trust = TrustManager("victim")
    trust.set_initial_trust("attacker", 0.7)
    probe = TrustProbe(trust, "attacker")
    assert probe.read() == pytest.approx(0.7)
    assert probe.read() == pytest.approx(0.7)
    assert probe.reads == 2


def test_trust_probe_is_a_read_only_surface():
    """The probe captures only the bound ``trust_of`` accessor: it exposes
    no manager handle, and ``__slots__`` blocks smuggling one in."""
    trust = TrustManager("victim")
    probe = TrustProbe(trust, "attacker")
    assert not hasattr(probe, "manager")
    assert not hasattr(probe, "trust")
    with pytest.raises(AttributeError):
        probe.manager = trust


# ------------------------------------------------------ ThresholdRidingGrayhole
def test_threshold_rider_validates_parameters():
    with pytest.raises(ValueError):
        ThresholdRidingGrayhole(max_drop_probability=1.5)
    with pytest.raises(ValueError):
        ThresholdRidingGrayhole(max_drop_probability=-0.1)


def test_threshold_rider_pauses_and_resumes_with_hysteresis():
    trust = TrustManager("victim")
    trust.set_initial_trust("attacker", 0.5)
    rider = ThresholdRidingGrayhole(max_drop_probability=0.8, rng=random.Random(1))
    rider.bind_probe(TrustProbe(trust, "attacker"))

    rider.observe(0.0)
    assert not rider.riding_paused and rider.is_active(0.0)

    trust.set_initial_trust("attacker", 0.29)       # at/below the ride line
    rider.observe(1.0)
    assert rider.riding_paused and not rider.is_active(1.0)

    trust.set_initial_trust("attacker", 0.35)       # inside the hysteresis band
    rider.observe(2.0)
    assert rider.riding_paused                      # still waiting for headroom

    trust.set_initial_trust("attacker", 0.41)       # above the resume line
    rider.observe(3.0)
    assert not rider.riding_paused and rider.is_active(3.0)
    assert [entry[0] for entry in rider.adaptation_log] == [0.0, 1.0, 2.0, 3.0]


def test_threshold_rider_throttles_drop_probability_with_headroom():
    trust = TrustManager("victim")
    rider = ThresholdRidingGrayhole(max_drop_probability=0.8, rng=random.Random(1))
    rider.bind_probe(TrustProbe(trust, "attacker"))

    trust.set_initial_trust("attacker", 0.6)        # >= full headroom (0.3 + 0.1)
    rider.observe(0.0)
    assert rider.drop_probability == pytest.approx(0.8)

    trust.set_initial_trust("attacker", 0.35)       # half the headroom
    rider.observe(1.0)
    assert rider.drop_probability == pytest.approx(0.4)


def test_threshold_rider_without_probe_behaves_like_static_grayhole():
    rider = ThresholdRidingGrayhole(max_drop_probability=0.8, rng=random.Random(1))
    rider.observe(0.0)                              # no probe bound: no-op
    assert not rider.riding_paused
    assert rider.adaptation_log == []


# ------------------------------------------------- the 2x time-to-detect claim
def test_threshold_rider_survives_2x_longer_at_matched_drop_ratio():
    """The rider survives at least twice as long as a matched static grayhole.

    The rider merely *picks its windows* by watching its own trust: it
    pauses at or below 0.3, above the watchdog's 0.25 classification line,
    and throttles as its headroom thins.  A static grayhole that drops the
    same fraction of the traffic it attacks as the rider did in its active
    windows is classified within a few cycles under this defensive observer
    (harmful evidence weighs more than beneficial), while the rider survives
    the whole horizon.
    """
    params = TrustParameters(beta=0.8, alpha_harmful=0.15, alpha_beneficial=0.1,
                             default_trust=0.5, minimum=0.0)
    cycles = 24

    rider = ThresholdRidingGrayhole(max_drop_probability=1.0, rng=random.Random(11))
    rider_run = run_drop_feedback_loop(
        rider, cycles=cycles, opportunities=20,
        classification_threshold=0.25, trust_parameters=params)
    matched = _drop_ratio(rider_run)

    static = GrayholeAttack(drop_probability=matched, rng=random.Random(11))
    static_run = run_drop_feedback_loop(
        static, cycles=cycles, opportunities=20,
        classification_threshold=0.25, trust_parameters=params)

    # Matched effective drop ratio, up to the static attacker's sampling.
    assert abs(_drop_ratio(static_run) - matched) < 0.05

    assert static_run.detected_cycle is not None
    assert rider_run.detected_cycle is None          # survived the whole run
    assert rider_run.time_to_detect(cycles) >= 2 * static_run.time_to_detect(cycles)

    # The rider did attack (this is not "survive by never attacking") …
    assert sum(r.drops for r in rider_run.records) > 0
    # … and its pause windows show up as whole-run traffic it let through.
    assert rider_run.effective_drop_ratio < static_run.effective_drop_ratio
    # The feedback loop actually ran through the read-only probe.
    assert rider.probe is not None and rider.probe.reads == cycles


def test_feedback_loop_detects_static_attacker_quickly():
    params = TrustParameters(beta=0.8, alpha_harmful=0.4, alpha_beneficial=0.2,
                             default_trust=0.5, minimum=0.0)
    run = run_drop_feedback_loop(
        GrayholeAttack(drop_probability=1.0, rng=random.Random(3)),
        cycles=10, opportunities=20,
        classification_threshold=0.25, trust_parameters=params)
    assert run.detected_cycle == 0        # one full-drop cycle is enough here
    assert run.time_to_detect() == 1.0
    assert run.effective_drop_ratio == 1.0


# ------------------------------------------------------------ RotatingLiarClique
def test_rotating_clique_fields_one_active_liar_per_epoch():
    clique = RotatingLiarClique(protected_suspects={"s"}, lie_probability=1.0,
                                epoch_length=1.0, seed=3)
    members = [clique.member(f"m{i}") for i in range(3)]
    for epoch in range(9):
        decisions = {m.member_id: clique.member_decision(m.member_id, "s", float(epoch))
                     for m in members}
        liars = [mid for mid, lies in decisions.items() if lies]
        assert liars == [f"m{epoch % 3}"], f"epoch {epoch}: {decisions}"


def test_rotating_clique_rotation_is_deterministic_and_order_independent():
    def build():
        clique = RotatingLiarClique(protected_suspects={"s"}, lie_probability=1.0,
                                    epoch_length=2.0, seed=9)
        for member_id in ("b", "a", "c"):            # registration order varies
            clique.member(member_id)
        return clique

    one, two = build(), build()
    schedule_one = [one.member_decision(m, "s", float(now))
                    for now in range(12) for m in ("a", "b", "c")]
    schedule_two = [two.member_decision(m, "s", float(now))
                    for now in range(12) for m in ("a", "b", "c")]
    assert schedule_one == schedule_two
    assert True in schedule_one and False in schedule_one


def test_rotating_clique_member_answers_flow_through_rotation():
    clique = RotatingLiarClique(protected_suspects={"attacker"},
                                lie_probability=1.0, epoch_length=1.0, seed=5)
    m0, m1 = clique.member("m0"), clique.member("m1")
    # Epoch 0: m0 is the active liar, m1 answers honestly.
    assert m0.answer(honest=False, now=0.0, suspect="attacker") is True
    assert m1.answer(honest=False, now=0.0, suspect="attacker") is False
    # Epoch 1: the roles swap.
    assert m0.answer(honest=False, now=1.0, suspect="attacker") is False
    assert m1.answer(honest=False, now=1.0, suspect="attacker") is True


def test_rotating_clique_without_members_falls_back_to_shared_decision():
    clique = RotatingLiarClique(protected_suspects={"s"}, lie_probability=1.0,
                                epoch_length=1.0, seed=5)
    assert clique.member_decision("ghost", "s", 0.0) is True


# ------------------------------------------------- per-node attack RNG streams
def test_default_grayholes_on_distinct_nodes_use_independent_streams():
    first, second = GrayholeAttack(0.5), GrayholeAttack(0.5)
    first.install(_Router("n01"))
    second.install(_Router("n02"))
    draws_first = [first.rng.random() for _ in range(16)]
    draws_second = [second.rng.random() for _ in range(16)]
    assert draws_first != draws_second
    assert not set(draws_first) & set(draws_second)


def test_default_attack_streams_are_reproducible_per_node():
    """Same node id → same stream; an explicit rng is never reseeded."""
    first, second = GrayholeAttack(0.5), GrayholeAttack(0.5)
    first.install(_Router("n07"))
    second.install(_Router("n07"))
    assert [first.rng.random() for _ in range(8)] == \
        [second.rng.random() for _ in range(8)]

    supplied = random.Random(42)
    explicit = GrayholeAttack(0.5, rng=supplied)
    explicit.install(_Router("n07"))
    assert explicit.rng is supplied


def test_default_liars_on_distinct_nodes_use_independent_streams():
    first = LiarBehavior(protected_suspects={"s"}, lie_probability=0.5)
    second = LiarBehavior(protected_suspects={"s"}, lie_probability=0.5)
    first.install(_Router("n01"))
    second.install(_Router("n02"))
    assert [first.rng.random() for _ in range(16)] != \
        [second.rng.random() for _ in range(16)]


def test_attack_streams_survive_hash_randomisation():
    """Install-time derivation is PYTHONHASHSEED-independent: two fresh
    interpreters with different hash salts derive identical drop decisions
    for a default-constructed attack."""
    script = (
        "import json\n"
        "from repro.attacks import GrayholeAttack\n"
        "class R:\n"
        "    node_id = 'n05'\n"
        "    forward_filters = []\n"
        "    now = 10.0\n"
        "attack = GrayholeAttack(0.5)\n"
        "attack.install(R())\n"
        "print(json.dumps([attack._filter(None, 'prev', R) for _ in range(32)]))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "31337"):
        process = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
        )
        assert process.returncode == 0, process.stderr
        outputs.append(json.loads(process.stdout))
    assert outputs[0] == outputs[1]
    expected_rng = random.Random(stable_seed(0, "attack:grayhole:n05"))
    expected = [not expected_rng.random() < 0.5 for _ in range(32)]
    assert outputs[0] == expected

