"""Property-based tests for the stable seed-derivation helpers.

These guard the PR 3 seeding fixes: every RNG stream in the system now
derives from ``stable_seed``/``stable_digest``, so the properties below are
load-bearing for the whole resumable-campaign design — cross-process
determinism (content-hash resume re-runs cells in fresh workers),
independence of derived streams (sibling cells must not correlate) and
collision-freedom over the derivation paths the codebase actually uses.
"""

from __future__ import annotations

import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import stable_digest, stable_seed

# ------------------------------------------------------- derivation corpus
#: Derivation paths modelled on every stable_seed/stable_digest call site in
#: the codebase (liar streams, channel models, mobility, clique epochs,
#: engine cell ids, fuzzer samples).  The no-collision test freezes this
#: corpus: it is deterministic, so one green run means green forever.
def derivation_corpus() -> list:
    labels = ["loss-model", "mobility", "oracle-transport", "grayhole",
              "self-liar", "clique", "base-grayhole", "threshold-grayhole",
              "initial-trust"]
    labels += [f"liar:n{i:02d}" for i in range(64)]
    # Install-time per-node attack streams (base seed 0 in production, but
    # collision-freedom must hold under any base).
    labels += [f"attack:grayhole:n{i:02d}" for i in range(32)]
    labels += [f"attack:liar:n{i:02d}" for i in range(32)]
    labels += [f"attack:threshold-grayhole:n{i:02d}" for i in range(16)]
    labels += [f"attack-search:{gen}:{child}"
               for gen in range(8) for child in range(8)]
    labels += [f"clique:n{i:02d}@{epoch}" for i in range(16) for epoch in range(12)]
    labels += [f"fuzz:{i}" for i in range(256)]
    labels += [f"fuzz-seed:{i}" for i in range(256)]
    labels += [f"owner:n{i:02d}" for i in range(64)]
    for experiment in ("figure1", "figure2", "figure3", "ablation",
                       "confidence_sweep", "gravity_ablation", "mobility"):
        for axis in ("liar_ratio", "max_speed", "gamma", "confidence"):
            for value in ("0", "0.5", "1", "2", "5", "6.7%", "26.3%", "43.2%"):
                labels.append(f"{experiment}/{axis}={value}")
    return labels


def test_corpus_has_no_seed_collisions():
    labels = derivation_corpus()
    assert len(labels) == len(set(labels))  # the corpus itself is duplicate-free
    for base_seed in (0, 7, 23, 2 ** 31 - 1):
        seeds = [stable_seed(base_seed, label) for label in labels]
        assert len(set(seeds)) == len(labels), (
            f"stable_seed collision under base seed {base_seed}")


def test_corpus_has_no_digest_collisions():
    labels = derivation_corpus()
    digests = [stable_digest(label) for label in labels]
    assert len(set(digests)) == len(labels)


# --------------------------------------------------- cross-process stability
def test_seeds_are_identical_across_processes():
    """A fresh interpreter derives byte-identical seeds (no hash salting).

    This is the property ``PYTHONHASHSEED``-based derivations violate and
    the reason resume-from-store is sound: a worker process re-executing a
    cell must reproduce the parent's randomness exactly.
    """
    labels = derivation_corpus()[:48]
    script = (
        "import sys, json\n"
        "from repro.seeding import stable_seed, stable_digest\n"
        "labels = json.loads(sys.stdin.read())\n"
        "out = [[stable_digest(l)] + [stable_seed(b, l) for b in (0, 7, 23)]\n"
        "       for l in labels]\n"
        "print(json.dumps(out))\n"
    )
    import json

    results = []
    for hash_seed in ("0", "12345"):  # two different interpreter salts
        process = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(labels), capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
        )
        assert process.returncode == 0, process.stderr
        results.append(json.loads(process.stdout))
    assert results[0] == results[1]
    expected = [[stable_digest(l)] + [stable_seed(b, l) for b in (0, 7, 23)]
                for l in labels]
    assert results[0] == expected


def test_gravity_ablation_rows_are_identical_across_processes():
    """Row floats do not depend on the interpreter's set iteration order."""
    script = (
        "import json\n"
        "from repro.experiments import run_experiment\n"
        "print(json.dumps(run_experiment('gravity_ablation').rows()))\n"
    )
    outputs = []
    for hash_seed in ("0", "13"):
        process = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
        )
        assert process.returncode == 0, process.stderr
        outputs.append(process.stdout)
    assert outputs[0] == outputs[1]


# ------------------------------------------------------- stream independence
def test_derived_streams_are_independent():
    """Streams derived under distinct labels are decorrelated, not shifted.

    An additive derivation (``seed + offset``) makes sibling streams
    overlap after a lag; a digest derivation must not.  We check the first
    draws of many derived streams are all distinct, and that two labels'
    streams do not coincide under a common base seed.
    """
    base = 7
    first_draws = set()
    for label in derivation_corpus()[:200]:
        rng = random.Random(stable_seed(base, label))
        first_draws.add(rng.random())
    assert len(first_draws) == 200

    stream_a = [random.Random(stable_seed(base, "liar:n00")).random() for _ in range(1)]
    rng_a = random.Random(stable_seed(base, "liar:n00"))
    rng_b = random.Random(stable_seed(base, "liar:n01"))
    a = [rng_a.random() for _ in range(64)]
    b = [rng_b.random() for _ in range(64)]
    assert a != b
    assert not set(a) & set(b)
    assert stream_a[0] == a[0]  # re-deriving replays the same stream


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.text(min_size=0, max_size=64))
@settings(max_examples=200, deadline=None)
def test_stable_seed_is_deterministic_and_in_range(base_seed, label):
    first = stable_seed(base_seed, label)
    assert first == stable_seed(base_seed, label)
    assert 0 <= first < 2 ** 31
    assert stable_digest(label) == stable_digest(label)
    assert 0 <= stable_digest(label) < 2 ** 32


@given(st.integers(min_value=0, max_value=2 ** 20), st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=100, deadline=None)
def test_distinct_bases_rarely_alias_fixed_label(base_a, base_b):
    """Under one label, distinct base seeds derive distinct seeds.

    The multiplier 1_000_003 is odd and the modulus is 2**31, so
    ``base * 1_000_003 mod 2**31`` is injective over bases below 2**31 —
    two campaigns with different base seeds can never share every stream.
    """
    if base_a == base_b:
        return
    assert stable_seed(base_a, "loss-model") != stable_seed(base_b, "loss-model")
