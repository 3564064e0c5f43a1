#!/usr/bin/env python3
"""Full-stack link-spoofing campaign on a simulated MANET.

This example exercises the complete pipeline of the paper on the canonical
6-node topology:

1. OLSR converges (HELLO/TC exchange, MPR selection, routing tables).
2. At t = 40 s the ``attacker`` node starts advertising spoofed symmetric
   links to two nodes it cannot actually reach, and — thanks to its inflated
   coverage and high willingness — replaces the honest ``relay`` as the
   victim's MPR.
3. The victim's log analyzer observes the MPR replacement (evidence E1) and
   opens a cooperative investigation: the 2-hop neighbours covered by both
   MPRs are interrogated over paths that avoid the suspect.
4. The answers are aggregated with the trust system (Eq. 8), the confidence
   interval (Eq. 9) and the decision rule (Eq. 10) produce the verdict, and
   the trust table is updated round after round.

Usage::

    python examples/link_spoofing_campaign.py
"""

from __future__ import annotations

from repro.experiments import build_canonical_scenario, format_table
from repro.logs.records import LogCategory


def print_olsr_state(scenario, title: str) -> None:
    rows = []
    for node_id in sorted(scenario.nodes):
        node = scenario.nodes[node_id].router
        rows.append({
            "node": node_id,
            "symmetric_neighbors": ",".join(sorted(node.symmetric_neighbors())),
            "mprs": ",".join(sorted(node.mpr_set)) or "-",
            "routes": len(node.routing_table),
        })
    print(format_table(rows, title=title))
    print()


def main() -> int:
    scenario = build_canonical_scenario(seed=11, attack_start=40.0)
    victim, attacker = scenario.victim, scenario.attacker

    print("Phase 1 — OLSR convergence (no attack yet)")
    scenario.warm_up(35.0)
    print_olsr_state(scenario, "Protocol state at t=35s")
    victim.detection_round()  # consume convergence-era log records

    print("Phase 2 — the attacker starts spoofing links to edge1 and edge2 at t=40s")
    scenario.network.run(until=60.0)
    print_olsr_state(scenario, "Protocol state at t=60s (note the victim's MPR change)")

    mpr_records = victim.log.by_event("MPR_SET_CHANGED")[-1]
    print(f"Victim audit log: MPR set changed from "
          f"{mpr_records.get_list('previous')} to {mpr_records.get_list('mprs')}\n")

    print("Phase 3 — log-driven detection and cooperative investigation")
    cycles = []
    for cycle in range(12):
        for result in scenario.run_detection_cycle(10.0):
            if result.suspect != attacker.node_id:
                continue
            cycles.append({
                "cycle": cycle,
                "responders": ",".join(sorted(result.answers)),
                "denials": sum(1 for v in result.answers.values() if v < 0),
                "confirmations": sum(1 for v in result.answers.values() if v > 0),
                "detect": round(result.decision.detect_value, 3),
                "outcome": str(result.decision.outcome),
            })
    print(format_table(cycles, title="Investigation of the attacker, cycle by cycle"))
    print()

    print("Phase 4 — final trust table at the victim")
    trust_rows = [{"node": node, "trust": round(value, 3)}
                  for node, value in sorted(victim.trust_table().items())]
    print(format_table(trust_rows))
    print()

    # The victim's log holds only the categories its analyzer subscribed to.
    subscribed = ", ".join(sorted(str(c) for c in victim.analyzer.categories))
    received = len(victim.log.by_category(LogCategory.MESSAGE_RX))
    print(f"The victim parsed {len(victim.log)} audit-log records of the categories "
          f"its analyzer subscribes to ({subscribed}; {received} received-message "
          f"records) without touching a single packet payload.")
    verdicts = [c["outcome"] for c in cycles]
    print(f"Final verdict on {attacker.node_id!r}: {verdicts[-1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
