"""Tests for the differential validation harness (invariants, differential
comparisons, the fuzzing campaign and its CLI)."""

from __future__ import annotations

import math

import pytest

from repro.experiments.backends import (
    run_netsim_cell,
    run_oracle_cell,
    scenario_config_from_params,
)
from repro.experiments.scenario import build_canonical_scenario, build_manet_scenario
from repro.netsim.trace import TraceRecorder
from repro.validation import (
    DEFAULT_TOLERANCES,
    ScenarioAuditor,
    check_delivery_range,
    check_duplicate_suppression,
    check_mpr_coverage,
    check_trust_bounds,
    compare_metrics,
    minimize_params,
    run_differential,
    summary_metrics,
    validate_corpus,
)
from repro.validation.fuzz import ValidationReport

_FAST_PARAMS = {
    "total_nodes": 8, "liar_count": 1, "rounds": 3, "cycles": 3,
    "warmup": 25.0, "random_initial_trust": False,
}


# -------------------------------------------------------------- delivery range
def test_delivery_range_checker_passes_on_clean_runs():
    scenario = build_manet_scenario(node_count=10, liar_count=2, seed=3,
                                    max_speed=3.0)
    auditor = ScenarioAuditor(scenario)
    scenario.warm_up(40.0)
    assert len(auditor.recorder) > 0  # deliveries were actually audited
    assert check_delivery_range(scenario, auditor.recorder) == []


def test_delivery_range_checker_flags_out_of_range_delivery():
    recorder = TraceRecorder()
    recorder.record(1.0, "medium", "rx", "FRAME_DELIVERED",
                    source="tx", sender_pos=(0.0, 0.0),
                    receiver_pos=(400.0, 0.0), tx_range=250.0)
    recorder.record(2.0, "medium", "rx", "FRAME_DELIVERED",
                    source="tx", sender_pos=(0.0, 0.0),
                    receiver_pos=(200.0, 0.0), tx_range=250.0)
    violations = check_delivery_range(None, recorder)
    assert len(violations) == 1
    assert violations[0].invariant == "delivery-range"
    assert "400.000" in violations[0].detail


def test_delivery_range_checker_skips_unbounded_propagation():
    recorder = TraceRecorder()
    recorder.record(1.0, "medium", "rx", "FRAME_DELIVERED",
                    source="tx", sender_pos=(0.0, 0.0),
                    receiver_pos=(1e9, 0.0), tx_range=None)
    assert check_delivery_range(None, recorder) == []


# ----------------------------------------------------------------- mpr check
def test_mpr_coverage_checker_flags_broken_selection(monkeypatch):
    scenario = build_canonical_scenario(seed=11)
    scenario.warm_up(30.0)
    assert check_mpr_coverage(scenario) == []

    from repro.olsr import mpr as mpr_module

    def broken_select(**kwargs):
        return mpr_module.MprComputationResult()  # empty set, nothing covered

    monkeypatch.setattr(mpr_module, "select_mprs", broken_select)
    violations = check_mpr_coverage(scenario)
    assert violations
    assert all(v.invariant == "mpr-coverage" for v in violations)

    def gives_up(**kwargs):
        # Selects nothing and reports every address unreachable: the check
        # derives what is reachable itself, so this fails as well.
        return mpr_module.MprComputationResult(uncovered=~0)

    monkeypatch.setattr(mpr_module, "select_mprs", gives_up)
    assert check_mpr_coverage(scenario) == violations


# --------------------------------------------------------------- trust bounds
def test_trust_bounds_checker_flags_escaped_values():
    scenario = build_canonical_scenario(seed=11)
    scenario.warm_up(30.0)
    assert check_trust_bounds(scenario) == []
    # Skip the clamp by writing values directly, as a buggy update would.
    scenario.victim.trust._values["edge1"] = 1.7
    scenario.nodes["relay"].trust._values["edge2"] = float("nan")
    violations = check_trust_bounds(scenario)
    assert {v.node for v in violations} == {"victim", "relay"}
    assert all(v.invariant == "trust-bounds" for v in violations)


# ------------------------------------------------------- duplicate suppression
def test_duplicate_suppression_checker_flags_double_relay():
    scenario = build_canonical_scenario(seed=11)
    ScenarioAuditor(scenario)  # subscribes the FORWARD records the checker reads
    scenario.warm_up(30.0)
    assert check_duplicate_suppression(scenario) == []
    from repro.logs.records import LogCategory

    olsr = scenario.nodes["relay"].router
    for _ in range(2):
        olsr.log.log(99.0, LogCategory.FORWARD, "RELAYED",
                     origin="victim", seq=1234, ttl=3, last_hop="victim")
    violations = check_duplicate_suppression(scenario)
    assert len(violations) == 1
    assert violations[0].node == "relay"
    assert "seq 1234" in violations[0].detail


# ------------------------------------------------------------------- auditor
def test_auditor_subscribes_every_node_to_its_relay_records():
    from repro.logs.records import LogCategory

    scenario = build_manet_scenario(node_count=12, liar_count=2, seed=3)
    ScenarioAuditor(scenario)
    scenario.warm_up(30.0)
    forwarded = {node_id: node.router.stats.messages_forwarded
                 for node_id, node in scenario.nodes.items()
                 if node.router.stats.messages_forwarded}
    assert forwarded  # some nodes relayed, so the check below has teeth
    for node_id, count in forwarded.items():
        relayed = [r for r in scenario.nodes[node_id].log.by_category(LogCategory.FORWARD)
                   if r.event == "RELAYED"]
        assert len(relayed) == count, node_id
    assert check_duplicate_suppression(scenario) == []


def test_auditor_end_to_end_on_clean_scenario():
    scenario = build_canonical_scenario(seed=11)
    auditor = ScenarioAuditor(scenario)
    scenario.warm_up(45.0)
    scenario.run_detection_cycle()
    assert auditor.check_all() == []


# -------------------------------------------------------------- differential
def test_differential_run_on_paper_setting_agrees():
    result = run_differential(_FAST_PARAMS, seed=23)
    assert result.ok, [str(c.metric) for c in result.disagreements()]
    assert set(c.metric for c in result.comparisons) == set(DEFAULT_TOLERANCES)


def test_differential_reuses_provided_netsim_result():
    config = scenario_config_from_params(_FAST_PARAMS, 23)
    netsim = run_netsim_cell(config, _FAST_PARAMS)
    result = run_differential(_FAST_PARAMS, seed=23, netsim_result=netsim)
    assert result.netsim_metrics == summary_metrics(netsim)


def test_compare_metrics_flags_disagreement_and_incomparability():
    oracle = {"final_attacker_trust": 0.05, "investigated": 1.0}
    netsim = {"final_attacker_trust": 0.95, "investigated": 1.0}
    comparisons = compare_metrics(oracle, netsim)
    assert [c.metric for c in comparisons] == sorted(DEFAULT_TOLERANCES)
    final = next(c for c in comparisons if c.metric == "final_attacker_trust")
    assert final.tolerance == 0.6
    assert final.comparable
    assert not final.within
    assert final.difference == pytest.approx(0.9)
    # A metric one side lacks is incomparable, hence not a disagreement.
    assert all(c.within and not c.comparable
               for c in comparisons if c.metric != "final_attacker_trust")

    # One side never investigated: incomparable, hence not a disagreement.
    silent = {"final_attacker_trust": 0.4, "investigated": 0.0}
    final = next(c for c in compare_metrics(oracle, silent)
                 if c.metric == "final_attacker_trust")
    assert not final.comparable
    assert final.within
    assert final.difference is None


def test_broken_trust_dynamics_cross_the_declared_tolerances():
    """The sharp end of the harness: a wrong alpha_harmful (the canonical
    refactor bug) must produce a detected disagreement."""
    from dataclasses import replace

    config = scenario_config_from_params(_FAST_PARAMS, 23)
    netsim = summary_metrics(run_netsim_cell(config, _FAST_PARAMS))
    assert netsim["first_guilty_step_attacker"] is not None
    broken = config.with_overrides(trust=replace(config.trust, alpha_harmful=0.5))
    oracle = summary_metrics(run_oracle_cell(broken))
    comparisons = compare_metrics(oracle, netsim)
    assert any(not c.within for c in comparisons)


def test_summary_metrics_first_steps_condition_on_verdict_sign():
    config = scenario_config_from_params(_FAST_PARAMS, 23)
    metrics = summary_metrics(run_oracle_cell(config))
    # The oracle investigates every round while the attack is active, and
    # the attacker's trust falls on the first guilty verdict.
    assert metrics["investigated"] == 1.0
    assert metrics["first_guilty_step_attacker"] < 0.0
    assert 0.0 <= metrics["final_attacker_trust"] <= 1.0


# -------------------------------------------------------------------- fuzzing
def test_validate_corpus_small_budget_is_clean():
    report = validate_corpus(3)
    assert report.ok
    assert report.samples == 3
    assert report.invariant_runs == 3
    assert report.differential_runs >= 0
    text = report.format_report()
    assert "issues:                0" in text
    assert "agree within tolerances" in text


def test_validation_report_formats_issues_with_reproducers():
    from repro.validation.fuzz import ValidationIssue

    report = ValidationReport(samples=1, invariant_runs=1, issues=[
        ValidationIssue(kind="invariant", sample="fuzz[0]/x/seed=1",
                        detail="[trust-bounds] n00: trust 1.5",
                        reproducer="python -m repro.experiments run ..."),
    ])
    assert not report.ok
    text = report.format_report()
    assert "invariant failure in fuzz[0]/x/seed=1" in text
    assert "reproduce: python -m repro.experiments run ..." in text


def test_minimize_params_keeps_only_failure_preserving_shrinks():
    params = {"total_nodes": 16, "liar_count": 3, "loss_probability": 0.1,
              "loss_model": "bernoulli", "mobility_model": "rpgm",
              "max_speed": 2.0, "threat": "liar-clique"}

    def still_fails(candidate):
        # The "bug" needs liars and mobility; everything else can shrink.
        return candidate["liar_count"] > 0 and candidate["mobility_model"] != "static"

    minimized = minimize_params(params, seed=1, still_fails=still_fails)
    assert minimized["loss_probability"] == 0.0      # shrunk
    assert minimized["threat"] == "link-spoofing"    # shrunk
    assert minimized["total_nodes"] == 8             # shrunk
    assert minimized["liar_count"] == 3              # kept: removal loses the bug
    assert minimized["mobility_model"] == "rpgm"     # kept


def test_minimize_params_survives_crashing_candidates():
    params = {"total_nodes": 16, "liar_count": 3}

    def still_fails(candidate):
        if candidate["total_nodes"] == 8:
            raise RuntimeError("builder exploded")
        return True

    minimized = minimize_params(params, seed=1, still_fails=still_fails)
    assert minimized["total_nodes"] == 16  # the crashing shrink was discarded
    assert minimized["liar_count"] == 0


# ------------------------------------------------------------------------ CLI
def test_cli_validate_smoke(tmp_path, capsys):
    from repro.experiments.__main__ import main

    out = tmp_path / "validate.txt"
    assert main(["validate", "--seeds", "2", "--output", str(out)]) == 0
    assert "fuzzed samples:        2" in out.read_text()
    capsys.readouterr()


def test_cli_validate_rejects_bad_arguments(capsys):
    from repro.experiments.__main__ import main

    assert main(["validate", "--seeds", "1", "--profiles", "typo"]) == 2
    assert "unknown scenario profile" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["validate", "--seeds", "0"])
    capsys.readouterr()
