"""Differential validation: the oracle and netsim backends must agree.

The engine's two execution substrates implement the same trust/detection
process at very different fidelities: the ``"oracle"`` backend runs the
paper's idealised round loop, the ``"netsim"`` backend the full OLSR MANET.
After three PRs of engine refactoring the biggest remaining risk is *silent
divergence* — a seeding or semantics bug that makes one backend quietly
simulate a different scenario than the other.  The differential harness
runs one parameter set on both backends and compares summary metrics within
**declared tolerances**:

* the backends share the scenario process only for the paper's
  link-spoofing + independent-liar threat (richer compositions are
  netsim-only and validated structurally instead), so comparisons run with
  ``threat="link-spoofing"``;
* the tolerances are wide enough for legitimate fidelity differences
  (queries that physically fail to reach responders, investigation cycles
  the netsim victim skips) and tight enough to catch sign errors, runaway
  trust updates and decorrelated seeding — the failure modes refactors
  actually produce.

Comparability note: run differential specs with
``random_initial_trust=False`` so both backends start every node at the
default trust instead of backend-specific random draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.experiments.backends import run_netsim_cell, run_oracle_cell
from repro.experiments.config import ScenarioConfig
from repro.experiments.rounds import ExperimentResult

#: Declared absolute tolerances per compared metric.
#:
#: The per-verdict *step* metrics are the sharp checks: both backends apply
#: the identical Eq. 5 update per investigation verdict, so the mean trust
#: delta per guilty (resp. innocent) verdict must match within roughly one
#: evidence weight — decorrelated seeding, swapped alphas or a skipped
#: clamp blow straight through these.  The *level* metrics are deliberately
#: coarse guards: the backends legitimately differ in how many
#: investigations fire (the netsim victim needs an E1 trigger; mobility can
#: even turn a spoofed link true, flipping the ground truth), so absolute
#: trust levels may drift apart by several update steps without any bug —
#: but runaway or wrong-direction dynamics still cross these bounds.
DEFAULT_TOLERANCES: Mapping[str, float] = {
    "first_guilty_step_attacker": 0.2,
    "first_innocent_step_attacker": 0.12,
    "final_attacker_trust": 0.6,
    "mean_honest_trust": 0.25,
    "max_trust_spread": 0.65,
}


@dataclass(frozen=True)
class MetricComparison:
    """One compared metric of a differential run."""

    metric: str
    oracle: Optional[float]
    netsim: Optional[float]
    tolerance: float
    #: False when a side produced no value (e.g. the netsim victim never
    #: investigated the attacker) — incomparable, not a disagreement.
    comparable: bool

    @property
    def difference(self) -> Optional[float]:
        """Absolute difference, when both sides produced a value."""
        if not self.comparable:
            return None
        return abs(self.oracle - self.netsim)

    @property
    def within(self) -> bool:
        """Whether the comparison is inside its declared tolerance."""
        if not self.comparable:
            return True
        return self.difference <= self.tolerance


@dataclass
class DifferentialResult:
    """Outcome of one oracle↔netsim differential run."""

    seed: int
    params: Dict[str, object]
    comparisons: List[MetricComparison] = field(default_factory=list)
    oracle_metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    netsim_metrics: Dict[str, Optional[float]] = field(default_factory=dict)

    def disagreements(self) -> List[MetricComparison]:
        """Comparisons outside their declared tolerance."""
        return [c for c in self.comparisons if not c.within]

    @property
    def ok(self) -> bool:
        """Whether every comparison is inside tolerance."""
        return not self.disagreements()


def summary_metrics(result: ExperimentResult) -> Dict[str, Optional[float]]:
    """Backend-independent summary metrics of one run.

    Level metrics read the investigator's final trust snapshot (nodes the
    snapshot does not mention sit at the default trust, which is what the
    trust manager would answer).  The step metrics take the attacker's
    trust delta across its *first* round with each verdict sign
    (``detect < 0``: misbehaviour observed per Eq. 9; ``detect > 0``:
    cleared) — the first step, because both backends start the attacker at
    the same trust there, whereas later steps saturate against the trust
    floor and would dilute a broken update rule out of sight.
    """
    default = result.config.trust.default_trust
    attacker = result.attacker

    first_guilty: Optional[float] = None
    first_innocent: Optional[float] = None
    previous = result.initial_trust.get(attacker, default)
    snapshot: Dict[str, float] = dict(result.initial_trust)
    for record in result.rounds:
        if record.trust_snapshot:
            snapshot = record.trust_snapshot
        current = snapshot.get(attacker, default)
        if record.detect_value is not None:
            if record.detect_value < 0.0 and first_guilty is None:
                first_guilty = current - previous
            elif record.detect_value > 0.0 and first_innocent is None:
                first_innocent = current - previous
        previous = current

    def final(node: str) -> float:
        return snapshot.get(node, default)

    def mean(values: List[float]) -> Optional[float]:
        if not values:
            return None
        return sum(values) / len(values)

    values = [final(n) for n in sorted(result.responders | {attacker})]
    return {
        "first_guilty_step_attacker": first_guilty,
        "first_innocent_step_attacker": first_innocent,
        "final_attacker_trust": final(attacker),
        "mean_honest_trust": mean([final(n) for n in sorted(result.honest_responders)]),
        "max_trust_spread": (max(values) - min(values)) if values else None,
        "investigated": 1.0 if result.detect_values() else 0.0,
    }


def compare_metrics(
    oracle_metrics: Mapping[str, Optional[float]],
    netsim_metrics: Mapping[str, Optional[float]],
) -> List[MetricComparison]:
    """Compare two metric dicts under the declared :data:`DEFAULT_TOLERANCES`.

    Trust-trajectory metrics are only comparable when *both* backends
    actually ran investigations — a netsim run whose victim never
    investigated the attacker carries no evidence either way.
    """
    both_investigated = bool(oracle_metrics.get("investigated")) and bool(
        netsim_metrics.get("investigated"))
    comparisons: List[MetricComparison] = []
    for metric, tolerance in sorted(DEFAULT_TOLERANCES.items()):
        oracle = oracle_metrics.get(metric)
        netsim = netsim_metrics.get(metric)
        comparable = (
            both_investigated
            and oracle is not None and netsim is not None
            and not math.isnan(oracle) and not math.isnan(netsim)
        )
        comparisons.append(MetricComparison(
            metric=metric,
            oracle=oracle,
            netsim=netsim,
            tolerance=tolerance,
            comparable=comparable,
        ))
    return comparisons


def run_differential(
    params: Mapping[str, object],
    seed: int,
    netsim_result: Optional[ExperimentResult] = None,
) -> DifferentialResult:
    """Run one parameter set on both backends and compare the metrics.

    ``params`` uses the engine's flat parameter vocabulary (ScenarioConfig
    fields + netsim knobs).  Pass ``netsim_result`` to reuse an
    already-executed netsim run (the fuzzing harness audits the netsim run
    for invariants first and feeds it in here, so each sample simulates the
    MANET once).
    """
    from repro.experiments.backends import scenario_config_from_params

    config: ScenarioConfig = scenario_config_from_params(params, seed)
    oracle_result = run_oracle_cell(config)
    if netsim_result is None:
        netsim_result = run_netsim_cell(config, params)
    oracle_metrics = summary_metrics(oracle_result)
    netsim_metrics = summary_metrics(netsim_result)
    return DifferentialResult(
        seed=seed,
        params=dict(params),
        comparisons=compare_metrics(oracle_metrics, netsim_metrics),
        oracle_metrics=oracle_metrics,
        netsim_metrics=netsim_metrics,
    )
