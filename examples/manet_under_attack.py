#!/usr/bin/env python3
"""A 16-node random MANET under a combined attack.

Builds a random MANET (uniform placement, unit-disk radio), compromises one
node with a link-spoofing attack plus a blackhole, recruits colluding liars,
and lets every node run the full detector stack.  The example then reports:

* the victim's investigation of the attacker (Detect trajectory and verdict),
* the victim's trust table (attacker and responding liars collapse),
* substrate statistics (events, frames, OLSR messages) showing what the
  detection cost on top of routing.

Usage::

    python examples/manet_under_attack.py [node_count] [liar_count] [seed]
"""

from __future__ import annotations

import sys

from repro.attacks import BlackholeAttack
from repro.experiments import build_manet_scenario, format_table, sparkline


def main() -> int:
    node_count = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    liar_count = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 23

    scenario = build_manet_scenario(node_count=node_count, liar_count=liar_count,
                                    seed=seed, attack_start=40.0)
    # The spoofing attacker also black-holes the traffic it attracts.
    blackhole = BlackholeAttack()
    blackhole.schedule.start_time = 40.0
    blackhole.install(scenario.attacker)

    print(f"MANET: {node_count} nodes, attacker={scenario.attacker_id}, "
          f"victim={scenario.victim_id}, liars={sorted(scenario.liar_ids)}\n")

    scenario.warm_up(35.0)
    scenario.victim.detection_round()  # absorb convergence-era triggers

    trajectory = []
    rows = []
    for cycle in range(12):
        for result in scenario.run_detection_cycle(10.0):
            if result.suspect != scenario.attacker_id:
                continue
            trajectory.append(result.decision.detect_value)
            rows.append({
                "cycle": cycle,
                "answers": len([v for v in result.answers.values() if v != 0.0]),
                "unreached": len(result.responders_unreached),
                "detect": round(result.decision.detect_value, 3),
                "outcome": str(result.decision.outcome),
            })

    print(format_table(rows, title=f"Investigation of {scenario.attacker_id} by {scenario.victim_id}"))
    print()
    if trajectory:
        print("Detect trajectory: " + sparkline(trajectory, low=-1.0, high=1.0)
              + f"   ({trajectory[0]:+.2f} -> {trajectory[-1]:+.2f})")
        print()

    trust_rows = []
    victim_trust = scenario.victim.trust
    for node_id in sorted(victim_trust.known_subjects()):
        role = ("attacker" if node_id == scenario.attacker_id
                else "liar" if node_id in scenario.liar_ids else "honest")
        trust_rows.append({"node": node_id, "role": role,
                           "trust": round(victim_trust.trust_of(node_id), 3)})
    print(format_table(trust_rows, title=f"Trust table of {scenario.victim_id}"))
    print()

    stats = scenario.network.medium.stats
    olsr_rx = sum(n.router.stats.messages_received for n in scenario.nodes.values())
    print(f"Substrate: {scenario.network.simulator.processed_events} simulated events, "
          f"{stats.frames_sent} frames sent, {olsr_rx} OLSR messages processed, "
          f"{blackhole.dropped_count} messages black-holed by the attacker.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
