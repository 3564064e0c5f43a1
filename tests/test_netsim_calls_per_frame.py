"""A dense netsim cell makes few Python calls per delivered frame, on any host.

A broadcast should cost one engine push per frame, and one loss draw and
one ``receive`` call per receiver.  Wall-clock checks of that depend on the
host; the number of Python function calls does not.  This test builds the
first seed-1 cell of perfbench's ``dense-static`` workload (128 static
nodes, Bernoulli loss 0.1, cell seed 1903018497) through
``scenario_config_from_params`` and ``build_netsim_scenario``, counts the
``call`` events ``sys.setprofile`` reports while ``drive_netsim_scenario``
runs it, and divides them by the medium's ``frames_delivered``.  List,
dict and set comprehension frames are left out of the count because
Python 3.12 inlines them.  The timer-wheel engine and the medium with its
collision and brute-force paths made 9.80 calls per delivered frame; a
per-frame helper, clock property or per-receiver event coming back pushes
the count over the bound.

The cell is counted in two interpreters at once, under ``PYTHONHASHSEED``
0 and 13, and the two counts must be equal: a loop whose work follows set
iteration order (a short-circuiting generator over a set, say) moves the
count with the hash seed and fails here.

The same cell also checks two accounting identities in both interpreters:
every event the engine pushed was popped, skipped as cancelled or is still
queued, and every sent broadcast reached each other interface as exactly
one fate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.backends import (
    build_netsim_scenario,
    drive_netsim_scenario,
    scenario_config_from_params,
)

#: perfbench's ``dense-static`` parameters and its first seed-1 cell.
_DENSE_STATIC = {
    "liar_fraction": 0.1, "attack_variant": "false_existing_link",
    "warmup": 12.0, "attack_start": 13.0, "cycles": 1, "cycle_length": 5.0,
    "total_nodes": 128, "area_size": 1980.0,
    "loss_model": "bernoulli", "loss_probability": 0.1,
}
_CELL_SEED = 1903018497
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
MAX_CALLS_PER_DELIVERED_FRAME = 8.5
#: The hash seeds of the two interpreters; the bound is checked on the first.
_HASH_SEEDS = ("0", "13")


def count_cell() -> dict:
    """Drive the cell under ``sys.setprofile``; its call count and the
    engine and medium figures the accounting identities read."""
    config = scenario_config_from_params(_DENSE_STATIC, _CELL_SEED)
    scenario = build_netsim_scenario(config, _DENSE_STATIC)
    calls = [0]

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_name not in _INLINED:
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        drive_netsim_scenario(scenario, config, _DENSE_STATIC)
    finally:
        sys.setprofile(previous)
    network = scenario.network
    simulator = network.simulator
    stats = network.medium.stats
    return {
        "calls": calls[0],
        "counters": network.engine_counters(),
        "processed_events": simulator.processed_events,
        "queued_entries": simulator.queued_entries,
        "interfaces": len(network.interfaces),
        "frames_sent": stats.frames_sent,
        "frames_delivered": stats.frames_delivered,
        "frames_lost": stats.frames_lost,
        "frames_out_of_range": stats.frames_out_of_range,
        "frames_unroutable": stats.frames_unroutable,
        "frames_collided": stats.frames_collided,
    }


@pytest.fixture(scope="module")
def counted_cells():
    """Hash seed -> :func:`count_cell`'s figures from an interpreter
    started with that ``PYTHONHASHSEED``; the interpreters run at once."""
    root = Path(__file__).resolve().parent.parent
    script = ("import json\n"
              "from tests.test_netsim_calls_per_frame import count_cell\n"
              "print(json.dumps(count_cell()))\n")
    processes = {
        seed: subprocess.Popen(
            [sys.executable, "-c", script], cwd=root, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={"PYTHONHASHSEED": seed,
                 "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])})
        for seed in _HASH_SEEDS
    }
    figures = {}
    for seed, process in processes.items():
        stdout, stderr = process.communicate()
        assert process.returncode == 0, stderr
        figures[seed] = json.loads(stdout)
    return figures


def test_a_dense_static_cell_makes_few_calls_per_delivered_frame(counted_cells):
    cell = counted_cells[_HASH_SEEDS[0]]
    calls, delivered = cell["calls"], cell["frames_delivered"]
    assert delivered > 80_000
    per_frame = calls / delivered
    assert per_frame <= MAX_CALLS_PER_DELIVERED_FRAME, (
        f"{per_frame:.2f} Python calls per delivered frame ({calls} calls, "
        f"{delivered} frames delivered)")


def test_the_call_count_does_not_follow_the_hash_seed(counted_cells):
    first, second = (counted_cells[seed] for seed in _HASH_SEEDS)
    assert first["frames_delivered"] == second["frames_delivered"]
    assert first["calls"] == second["calls"], (
        f"{first['calls']} calls under PYTHONHASHSEED={_HASH_SEEDS[0]}, "
        f"{second['calls']} under {_HASH_SEEDS[1]}")


def test_every_engine_push_is_popped_skipped_or_queued(counted_cells):
    for cell in counted_cells.values():
        counters = cell["counters"]
        assert counters["pops"] == cell["processed_events"] > 0
        assert counters["pushes"] == (counters["pops"] + counters["cancelled_skipped"]
                                      + cell["queued_entries"])


def test_every_broadcast_reaches_each_other_interface_as_one_fate(counted_cells):
    for cell in counted_cells.values():
        assert cell["frames_sent"] > 0 and cell["frames_collided"] == 0
        # No node arrives or leaves, and OLSR only broadcasts.
        assert (cell["frames_sent"] * (cell["interfaces"] - 1)
                == cell["frames_delivered"] + cell["frames_lost"]
                + cell["frames_out_of_range"] + cell["frames_unroutable"])
