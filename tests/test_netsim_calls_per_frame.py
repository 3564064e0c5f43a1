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

The same cell also checks two accounting identities: every event the
engine pushed was popped, skipped as cancelled or is still queued, and
every sent broadcast reached each other interface as exactly one fate.
"""

from __future__ import annotations

import sys

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


@pytest.fixture(scope="module")
def profiled_cell():
    """The driven cell's scenario and the Python calls made while driving it."""
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
    return scenario, calls[0]


def test_a_dense_static_cell_makes_few_calls_per_delivered_frame(profiled_cell):
    scenario, calls = profiled_cell
    delivered = scenario.network.medium.stats.frames_delivered
    assert delivered > 80_000
    per_frame = calls / delivered
    assert per_frame <= MAX_CALLS_PER_DELIVERED_FRAME, (
        f"{per_frame:.2f} Python calls per delivered frame ({calls} calls, "
        f"{delivered} frames delivered)")


def test_every_engine_push_is_popped_skipped_or_queued(profiled_cell):
    scenario, _ = profiled_cell
    simulator = scenario.network.simulator
    counters = scenario.network.engine_counters()
    assert counters["pops"] == simulator.processed_events > 0
    assert counters["pushes"] == (counters["pops"] + counters["cancelled_skipped"]
                                  + simulator.queued_entries)


def test_every_broadcast_reaches_each_other_interface_as_one_fate(profiled_cell):
    scenario, _ = profiled_cell
    network = scenario.network
    stats = network.medium.stats
    assert stats.frames_sent > 0 and stats.frames_collided == 0
    # No node arrives or leaves, and OLSR only broadcasts.
    assert (stats.frames_sent * (len(network.interfaces) - 1)
            == stats.frames_delivered + stats.frames_lost
            + stats.frames_out_of_range + stats.frames_unroutable)
