#!/usr/bin/env python3
"""Quickstart: reproduce the paper's headline experiment in a few lines.

Runs the 16-node scenario of the evaluation section (1 link-spoofing
attacker, 4 colluding liars, random initial trust, 25 investigation rounds)
and prints the Figure 1 trust trajectories plus the detection trajectory.

The same experiment is one command away on the unified CLI (with parallel
fan-out and resumable storage)::

    python -m repro.experiments run figure1

Usage::

    python examples/quickstart.py [seed]
"""

from __future__ import annotations

import sys

from repro import RoundBasedExperiment, ScenarioConfig
from repro.experiments import format_table, format_trajectories, run_experiment, sparkline
from repro.metrics import TrustTrajectoryReport


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    config = ScenarioConfig(seed=seed)

    print(f"Scenario: {config.total_nodes} nodes, 1 attacker, "
          f"{config.effective_liar_count()} liars "
          f"({config.liar_percentage():.1f}% of responders), {config.rounds} rounds\n")

    # The per-round trajectories come from the library API directly; the
    # summary table is the registered "figure1" experiment's report rows.
    experiment = RoundBasedExperiment(config).run()
    trajectories = experiment.trust_trajectories()

    roles = {node: experiment.role_of(node) for node in trajectories}
    print(format_trajectories(trajectories, roles=roles,
                              title="Trust assigned by the attacked node (per round)"))
    print()
    print(format_table(run_experiment("figure1", base_seed=seed).rows(),
                       title="Initial vs final trust"))
    print()

    detect = experiment.detect_values()
    print("Detection aggregate Detect^{A,I} per round "
          "(-1 = the advertised link is spoofed):")
    print("  " + sparkline(detect, low=-1.0, high=1.0))
    print("  first round: %+.3f   round 10: %+.3f   last round: %+.3f"
          % (detect[0], detect[min(10, len(detect) - 1)], detect[-1]))
    print(f"  final verdict on the attacker: {experiment.final_outcome()}")

    report = TrustTrajectoryReport(
        observer=experiment.investigator,
        trajectories=trajectories,
        liars=experiment.liars,
        honest=experiment.honest_responders,
        attacker=experiment.attacker,
    )
    print()
    print("Paper-shape checks:")
    print(f"  liars monotonically losing trust ........ {report.liars_all_decreasing()}")
    print(f"  honest nodes never losing trust ......... {report.honest_all_non_decreasing()}")
    print(f"  honest-vs-liar separation at round 25 ... {report.final_separation():.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
