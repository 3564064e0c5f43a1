"""The benchmark's own tests, at toy sizes (seconds in all).

They check that every named metric is emitted with its unit, that a
corrupted output is counted as failed, that a hook point the program no
longer has is reported unmeasured instead of breaking the traced run, and
that host-speed sampling leaves no timer behind.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tracer import HOOKS, Hook
from worker import HostSpeed, measure
from workloads import build_workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TOY_SEED = 3


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(TOY_SEED),
         "--seconds", "0", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for workload in build_workloads(toy=True):
        prefix = workload + "."
        emitted = {name[len(prefix):]: entry for name, entry in result["metrics"].items()
                   if name.startswith(prefix)}
        assert {name: entry["unit"] for name, entry in emitted.items()} == expected
        assert all(isinstance(entry["value"], (int, float)) for entry in emitted.values())


class _CorruptOneOutput:
    """A workload whose ``n``-th execution returns a corrupted output."""

    def __init__(self, workload, n: int) -> None:
        self._workload = workload
        self._n = n
        self._calls = 0

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def execute(self, prepared):
        result = self._workload.execute(prepared)
        self._calls += 1
        if self._calls == self._n:
            result = dataclasses.replace(result, digest="0" * 64)
        return result


def test_a_corrupted_output_counts_as_failed():
    workload = build_workloads(toy=True)["oracle-sweep"]
    clean = measure(workload, TOY_SEED, seconds=0.0)
    assert clean["failed"] == 0
    # Execution 1 is the warm-up; execution 2 repeats it in the timed loop.
    corrupted = measure(_CorruptOneOutput(workload, 2), TOY_SEED, seconds=0.0)
    assert corrupted["attempted"] == clean["attempted"]
    assert corrupted["failed"] == clean["attempted"] // 2
    assert "differs" in corrupted["errors"][0]


def test_an_output_off_its_pinned_digest_counts_as_failed():
    workload = build_workloads(toy=True)["oracle-sweep"]
    result = measure(workload, TOY_SEED, seconds=0.0, pins=["0" * 64])
    assert result["failed"] == result["attempted"] > 0


def test_connected_cell_selection_keeps_seed_order():
    from workloads import NetsimCells, op_seed

    toy = build_workloads(toy=True)["dense-static"]
    workload = NetsimCells(toy.name, toy.params, min_connected=10)
    kept = workload.inputs(TOY_SEED, count=3)
    assert all(workload._largest_component(seed) == 10 for seed in kept)
    candidates = [op_seed(toy.name, TOY_SEED, i) for i in range(100)]
    positions = [candidates.index(seed) for seed in kept]
    assert positions == sorted(positions)


def test_a_missing_hook_point_is_reported_unmeasured():
    from repro.netsim.engine import Simulator
    from repro.olsr import node

    originals = (node.select_mprs, Simulator.post, Simulator.run)
    hooks = tuple(hook for hook in HOOKS if hook.label != "olsr.mpr")
    hooks += (Hook("repro.olsr.node:select_mprs_removed", "olsr.mpr"),)
    result = measure(build_workloads(toy=True)["dense-static"], TOY_SEED, seconds=0.0,
                     trace=True, hooks=hooks)
    traced = result["trace"]
    assert traced["unmeasured"] == ["olsr.mpr"]
    assert not [name for name in traced["metrics"] if name.startswith("olsr.mpr.")]
    assert traced["metrics"]["olsr.self_s"][0] > 0
    assert traced["accounting_ok"] and traced["digests_match"]
    # The tracer leaves the program as it found it.
    assert (node.select_mprs, Simulator.post, Simulator.run) == originals


def test_host_speed_sampling_leaves_no_timer_behind():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as host:
        time.sleep(0.35)
    assert len(host.speeds) >= 3 and host.speed() > 0 and host.spent > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == previous
