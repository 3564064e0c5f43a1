"""The entry points a tracer wraps on the class.

perfbench's tracer attributes every delivery to OLSR by wrapping
``OlsrNode.handle_control`` and every send to the medium by wrapping
``WirelessMedium.transmit``, both on the class and before the scenario is
built.  A delivery or send that bypassed either entry point would move its
cost to another layer unseen, so each must be called exactly once per
delivered and per sent frame.  No digest covers frame sizes, so the test
also checks each sent frame's size against its OLSR packet's.

The tracer bills every event the engine runs to the layer that scheduled
it, by handing ``Simulator.post``, ``schedule``, ``schedule_at`` and
``schedule_periodic`` a trampoline in place of the callback.  So every
callback the engine runs must have gone through one of those four methods.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments.backends import (
    build_netsim_scenario,
    drive_netsim_scenario,
    scenario_config_from_params,
)
from repro.netsim.engine import Simulator
from repro.netsim.medium import WirelessMedium
from repro.olsr.node import OlsrNode

_CELL = {
    "total_nodes": 10, "area_size": 500.0, "loss_model": "bernoulli",
    "loss_probability": 0.1, "liar_fraction": 0.1,
    "attack_variant": "false_existing_link",
    "warmup": 4.0, "attack_start": 2.0, "cycles": 1, "cycle_length": 2.0,
}


def _counting(owner, name, counts, frames):
    original = vars(owner)[name]

    def wrapper(self, frame, *args):
        counts[name] += 1
        frames.append(frame)
        return original(self, frame, *args)

    setattr(owner, name, wrapper)
    return original


def test_every_frame_crosses_both_hook_points_once():
    counts, sent = Counter(), []
    handle_control = _counting(OlsrNode, "handle_control", counts, [])
    transmit = _counting(WirelessMedium, "transmit", counts, sent)
    try:
        config = scenario_config_from_params(_CELL, 5)
        scenario = build_netsim_scenario(config, _CELL)
        drive_netsim_scenario(scenario, config, _CELL)
    finally:
        OlsrNode.handle_control = handle_control
        WirelessMedium.transmit = transmit
    stats = scenario.network.medium.stats
    assert stats.frames_sent > 0 and stats.frames_delivered > 0
    assert counts["transmit"] == stats.frames_sent
    assert counts["handle_control"] == stats.frames_delivered
    # The node sizes each frame in place; it must equal the packet's size.
    assert all(frame.size_bytes == frame.payload.size_bytes() for frame in sent)


def test_every_event_the_engine_runs_was_scheduled_through_a_hook_point():
    ran = Counter()

    def counting(callback, *args, **kwargs):
        ran[callback.__name__] += 1
        callback(*args, **kwargs)

    def hooked(function):
        # The tracer's call: the trampoline stands in for the callback,
        # which becomes the trampoline's first argument.
        def wrapper(simulator, delay, callback, *args, **kwargs):
            return function(simulator, delay, counting, callback, *args, **kwargs)
        return wrapper

    names = ("post", "schedule", "schedule_at", "schedule_periodic")
    originals = {name: vars(Simulator)[name] for name in names}
    for name, original in originals.items():
        setattr(Simulator, name, hooked(original))
    try:
        config = scenario_config_from_params(_CELL, 5)
        scenario = build_netsim_scenario(config, _CELL)
        drive_netsim_scenario(scenario, config, _CELL)
    finally:
        for name, original in originals.items():
            setattr(Simulator, name, original)
    processed = scenario.network.simulator.processed_events
    assert processed > 0
    assert sum(ran.values()) == processed
    assert ran["_deliver_batch"] > 0 and ran["_emit_hello"] > 0
