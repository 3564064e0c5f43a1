#!/usr/bin/env python3
"""Trust-convergence study: liar ratio and forgetting-factor sweeps.

Reproduces Figures 2 and 3 of the paper with configurable parameters and adds
a β (forgetting factor) sweep, one of the design choices DESIGN.md calls out
for ablation:

* How fast does the detection aggregate converge as the fraction of colluding
  liars grows?
* How quickly do trust values return to the default once the attack stops,
  and how much slower do former liars recover?

The stock sweeps are also registered on the unified CLI::

    python -m repro.experiments run figure3 --axis "liar_ratio=6.7%,26.3%,43.2%"
    python -m repro.experiments run figure2

Usage::

    python examples/trust_convergence_study.py
"""

from __future__ import annotations

from repro import RoundBasedExperiment, ScenarioConfig
from repro.experiments import format_series, format_table
from repro.experiments.figure3 import _figure3_row
from repro.metrics.trust_metrics import recovery_gap
from repro.trust.manager import TrustParameters


def liar_ratio_sweep() -> None:
    print("Part 1 — impact of the liar ratio on the detection (Figure 3)")
    configs = {
        f"{count} liars": ScenarioConfig(seed=7, liar_count=count)
        for count in (0, 2, 4, 6)
    }
    runs = {label: RoundBasedExperiment(config).run() for label, config in configs.items()}
    print(format_series({label: run.detect_values() for label, run in runs.items()},
                        title="Detect^{A,I} per round"))
    print()
    print(format_table([_figure3_row(label, run) for label, run in runs.items()],
                       title="Convergence summary"))
    print()


def forgetting_factor_sweep() -> None:
    print("Part 2 — forgetting factor after the attack ceases (Figure 2)")
    rows = []
    for beta in (0.90, 0.95, 0.98):
        # The figure2 experiment: 25 attack rounds, then 50 without misconduct.
        config = ScenarioConfig(seed=7, rounds=75, attack_stop_round=25)
        config = config.with_overrides(
            trust=TrustParameters(
                alpha_beneficial=config.trust.alpha_beneficial,
                alpha_harmful=config.trust.alpha_harmful,
                beta=beta,
                minimum=config.trust.minimum,
                beta_recovery=config.trust.beta_recovery,
            )
        )
        run = RoundBasedExperiment(config).run()
        gaps = {node: recovery_gap(trajectory, config.trust.default_trust)
                for node, trajectory in run.trust_trajectories().items()}
        honest_gap = max(abs(gaps[n]) for n in run.honest_responders)
        liar_gap = min(gaps[n] for n in run.liars)
        rows.append({
            "beta": beta,
            "rounds_after_stop": config.rounds - config.attack_stop_round,
            "max_honest_gap_to_default": round(honest_gap, 3),
            "min_former_liar_gap": round(liar_gap, 3),
        })
    print(format_table(rows, title="Recovery toward the default trust (0.4) per β"))
    print()
    print("Reading: honest nodes should end close to the default (small gap), while")
    print("former liars keep a visible gap — the defensive recovery the paper describes.")


def main() -> int:
    liar_ratio_sweep()
    forgetting_factor_sweep()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
