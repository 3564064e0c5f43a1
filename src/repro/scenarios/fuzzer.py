"""Seeded scenario fuzzer: sample valid scenarios from a constrained space.

The fuzzer manufactures the "as many scenarios as you can imagine" corpus
the validation harness (:mod:`repro.validation`) runs: each sample picks a
registered :class:`~repro.scenarios.profiles.ScenarioProfile` and perturbs
the orthogonal knobs around it — population size, liar head-count, channel
model, spoofing expression — inside a *constrained* space where every
combination is a well-formed scenario (liars stay a minority, node counts
satisfy the builder's preconditions, speeds stay low enough for an
investigation to be physically possible).

Every sample derives from :func:`repro.seeding.stable_seed`, so a corpus is
a pure function of ``(base_seed, index)``: the same ``validate --seeds N``
invocation reproduces the same scenarios on any machine, any process count
and any Python version, and a reported violation names the exact sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.scenarios.profiles import ScenarioProfile, get_profile, list_profiles
from repro.seeding import stable_seed

#: The constrained sampling space.  Deliberately conservative: validation
#: wants scenarios where the detector *can* work (so divergence means a bug,
#: not an impossible setting), hence minority liar counts, modest loss and
#: low speeds.
NODE_COUNTS: Sequence[int] = (8, 10, 12, 16)
LOSS_CHOICES: Sequence[Tuple[str, float]] = (
    ("bernoulli", 0.0),
    ("bernoulli", 0.05),
    ("bernoulli", 0.1),
    ("distance", 0.3),
)
ATTACK_VARIANTS: Sequence[str] = (
    "false_existing_link",
    "non_existent_neighbor",
    "omitted_neighbor",
)
#: Rounds (oracle) == detection cycles (netsim) per fuzzed run.  8 cycles
#: give the netsim victim enough post-attack time for E1 triggers to fire
#: in most sampled topologies, which is what makes the differential step
#: metrics comparable rather than vacuously skipped.
FUZZ_ROUNDS = 8


def reproducer_command(params: Mapping[str, object], seed: int,
                       experiment: str = "figure1",
                       backend: str = "netsim") -> str:
    """A ``python -m repro.experiments run`` line re-running one cell.

    The single source of every reproducer the validation harness prints:
    pass a raw sample's parameters (profile included — the engine expands
    it) or an already-expanded/minimized parameter set.
    """
    parts = [
        f"python -m repro.experiments run {experiment}",
        f"--backend {backend}",
        f"--seed {seed}",
    ]
    for name, value in sorted(params.items()):
        parts.append(f"--param {name}={value}")
    return " ".join(parts)


@dataclass(frozen=True)
class FuzzedScenario:
    """One fully-resolved fuzzer sample (frozen; safe to ship to workers)."""

    index: int
    seed: int
    profile: str
    params: Tuple[Tuple[str, object], ...]
    #: Whether the oracle↔netsim differential comparison applies (the
    #: profile models the process both backends implement).
    differential: bool

    def params_dict(self) -> Dict[str, object]:
        """The sample's flat parameters as a plain dict."""
        return dict(self.params)

    def run_id(self) -> str:
        """Human-readable identifier of the sample."""
        return f"fuzz[{self.index}]/{self.profile}/seed={self.seed}"

    def cli_command(self, experiment: str = "figure1") -> str:
        """A ``python -m repro.experiments run`` line reproducing the cell."""
        return reproducer_command(self.params_dict(), self.seed, experiment)


class ScenarioFuzzer:
    """Seeded sampler over the constrained scenario space.

    ``profiles`` restricts sampling to the named profiles (default: every
    registered profile).  Sample ``i`` of base seed ``s`` is identical
    across processes and platforms.
    """

    def __init__(self, base_seed: int = 0,
                 profiles: Optional[Sequence[str]] = None) -> None:
        self.base_seed = base_seed
        if profiles is None:
            self.profiles: List[ScenarioProfile] = list_profiles()
        else:
            self.profiles = [get_profile(name) for name in profiles]
        if not self.profiles:
            raise ValueError("no scenario profiles to fuzz")

    def sample(self, index: int) -> FuzzedScenario:
        """The ``index``-th fuzzed scenario of this corpus."""
        rng = random.Random(stable_seed(self.base_seed, f"fuzz:{index}"))
        profile = self.profiles[rng.randrange(len(self.profiles))]

        total_nodes = NODE_COUNTS[rng.randrange(len(NODE_COUNTS))]
        # Liars stay a strict minority of the responders so detection is
        # information-theoretically possible in every sampled scenario.
        max_liars = max(0, (total_nodes - 2) // 4)
        liar_count = rng.randrange(max_liars + 1)
        loss_model, loss_probability = LOSS_CHOICES[rng.randrange(len(LOSS_CHOICES))]

        params: Dict[str, object] = {
            "profile": profile.name,
            "total_nodes": total_nodes,
            "liar_count": liar_count,
            "rounds": FUZZ_ROUNDS,
            "random_initial_trust": False,
            "loss_model": loss_model,
            "loss_probability": loss_probability,
        }
        if profile.differential:
            # Keep the spoofing expression both backends model.
            params["attack_variant"] = "false_existing_link"
        else:
            params["attack_variant"] = ATTACK_VARIANTS[rng.randrange(len(ATTACK_VARIANTS))]

        seed = stable_seed(self.base_seed, f"fuzz-seed:{index}")
        return FuzzedScenario(
            index=index,
            seed=seed,
            profile=profile.name,
            params=tuple(sorted(params.items())),
            differential=profile.differential,
        )

    def corpus(self, count: int) -> Iterator[FuzzedScenario]:
        """The first ``count`` samples, in index order."""
        for index in range(count):
            yield self.sample(index)
