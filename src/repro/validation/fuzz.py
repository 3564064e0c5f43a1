"""Fuzzing campaign: invariants + differential checks over a seeded corpus.

``validate_corpus`` drives the whole validation subsystem: it asks the
scenario fuzzer (:mod:`repro.scenarios.fuzzer`) for ``count`` samples, runs
every sample on the netsim backend under a :class:`~repro.validation.
invariants.ScenarioAuditor`, cross-checks the differential-eligible samples
against the oracle backend, and — when something fails — *minimizes* the
failing parameter set with a greedy shrinker so the report names the
smallest scenario still exhibiting the problem, as a copy-pastable CLI
reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.backends import (
    build_netsim_scenario,
    drive_netsim_scenario,
    scenario_config_from_params,
)
from repro.scenarios import ScenarioFuzzer, apply_profile, reproducer_command
from repro.validation.differential import (
    DEFAULT_TOLERANCES,
    run_differential,
)
from repro.validation.invariants import InvariantViolation, ScenarioAuditor

#: Greedy shrink steps, in the order they are attempted.  Each maps a
#: parameter dict to a "simpler" one; a step is kept only when the failure
#: persists without it, so minimization never loses the bug.
SHRINK_STEPS: Sequence[Tuple[str, Dict[str, object]]] = (
    ("lossless channel", {"loss_model": "bernoulli", "loss_probability": 0.0}),
    ("static nodes", {"mobility_model": "static", "max_speed": 0.0}),
    ("base threat", {"threat": "link-spoofing"}),
    ("no liars", {"liar_count": 0}),
    ("small population", {"total_nodes": 8}),
)


@dataclass(frozen=True)
class ValidationIssue:
    """One validation failure, with its minimized reproducer."""

    kind: str  # "invariant" | "differential"
    sample: str  # fuzz sample run id
    detail: str
    reproducer: str

    def __str__(self) -> str:
        return f"{self.kind} failure in {self.sample}: {self.detail}\n  reproduce: {self.reproducer}"


@dataclass
class ValidationReport:
    """Outcome of one fuzzing campaign."""

    samples: int = 0
    invariant_runs: int = 0
    differential_runs: int = 0
    issues: List[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the whole corpus validated cleanly."""
        return not self.issues

    def format_report(self) -> str:
        """Deterministic plain-text report of the campaign."""
        lines = [
            "Validation campaign",
            f"  fuzzed samples:        {self.samples}",
            f"  invariant-checked:     {self.invariant_runs}",
            f"  differential-checked:  {self.differential_runs}",
            f"  issues:                {len(self.issues)}",
        ]
        for issue in self.issues:
            lines.append("")
            lines.append(str(issue))
        if self.ok:
            lines.append("  all invariants hold; oracle and netsim agree within tolerances")
        return "\n".join(lines)


def _reproducer(params: Mapping[str, object], seed: int) -> str:
    """A fully-explicit CLI line re-running one netsim cell."""
    explicit = {name: value for name, value in params.items()
                if name != "profile"}  # the expanded parameters say it all
    return reproducer_command(explicit, seed)


def _netsim_violations(params: Mapping[str, object],
                       seed: int) -> List[InvariantViolation]:
    """Run one netsim cell under the auditor; return its violations."""
    config = scenario_config_from_params(params, seed)
    scenario = build_netsim_scenario(config, params)
    auditor = ScenarioAuditor(scenario)
    drive_netsim_scenario(scenario, config, params)
    return auditor.check_all()


def minimize_params(
    params: Mapping[str, object],
    seed: int,
    still_fails,
) -> Dict[str, object]:
    """Greedy parameter shrinker.

    ``still_fails(params)`` re-runs the check on a candidate parameter set;
    each :data:`SHRINK_STEPS` simplification is kept only when the failure
    persists.  At most ``len(SHRINK_STEPS)`` re-runs.
    """
    current = dict(params)
    for _label, overrides in SHRINK_STEPS:
        if all(current.get(k) == v for k, v in overrides.items()):
            continue
        candidate = dict(current)
        candidate.update(overrides)
        try:
            if still_fails(candidate):
                current = candidate
        except Exception:
            continue  # a shrink that crashes the run is not a simplification
    return current


def validate_corpus(
    count: int,
    base_seed: int = 0,
    profiles: Optional[Sequence[str]] = None,
    tolerances: Optional[Mapping[str, float]] = None,
    minimize: bool = True,
) -> ValidationReport:
    """Fuzz ``count`` scenarios and validate every one of them.

    Every sample is invariant-checked on the netsim backend; samples whose
    profile is differential-eligible are additionally cross-checked against
    the oracle backend (reusing the already-simulated netsim run, so each
    sample costs one MANET simulation).  Failures are minimized (when
    ``minimize``) and reported with explicit CLI reproducers.
    """
    tolerances = tolerances or DEFAULT_TOLERANCES
    fuzzer = ScenarioFuzzer(base_seed, profiles)
    report = ValidationReport(samples=count)

    for sample in fuzzer.corpus(count):
        params = apply_profile(sample.params_dict())
        config = scenario_config_from_params(params, sample.seed)
        scenario = build_netsim_scenario(config, params)
        auditor = ScenarioAuditor(scenario)
        netsim_result = drive_netsim_scenario(scenario, config, params)
        violations = auditor.check_all()
        report.invariant_runs += 1

        if violations:
            failing = dict(params)
            if minimize:
                broken = {v.invariant for v in violations}

                def _still(candidate, _broken=broken):
                    found = _netsim_violations(candidate, sample.seed)
                    return bool(_broken & {v.invariant for v in found})

                failing = minimize_params(params, sample.seed, _still)
            for violation in violations:
                report.issues.append(ValidationIssue(
                    kind="invariant",
                    sample=sample.run_id(),
                    detail=str(violation),
                    reproducer=_reproducer(failing, sample.seed),
                ))

        if sample.differential:
            differential = run_differential(
                params, sample.seed, tolerances=tolerances,
                netsim_result=netsim_result,
            )
            report.differential_runs += 1
            if not differential.ok:
                failing = dict(params)
                if minimize:
                    broken = {c.metric for c in differential.disagreements()}

                    def _still(candidate, _broken=broken):
                        result = run_differential(candidate, sample.seed,
                                                  tolerances=tolerances)
                        return bool(_broken & {c.metric
                                               for c in result.disagreements()})

                    failing = minimize_params(params, sample.seed, _still)
                for comparison in differential.disagreements():
                    report.issues.append(ValidationIssue(
                        kind="differential",
                        sample=sample.run_id(),
                        detail=(f"{comparison.metric}: oracle={comparison.oracle!r} "
                                f"netsim={comparison.netsim!r} "
                                f"|Δ|={comparison.difference:.4f} "
                                f"> tolerance {comparison.tolerance}"),
                        reproducer=_reproducer(failing, sample.seed),
                    ))

    report.issues.sort(key=lambda issue: (issue.kind, issue.sample, issue.detail))
    return report
