"""Netsim goldens: figure 1 row for row, and one cell per scenario profile.

* ``golden/figure1_netsim_parity.json`` pins ``run_experiment("figure1",
  backend="netsim")`` row for row, and one of its cells round for round.
* ``golden/profile_cells.json`` pins one 12-node, 4-cycle cell at seed 7
  for every registered scenario profile, reduced to what perfbench digests
  for a netsim cell: the round records, the victim's decisions, the event
  count and the medium's frame counts.  perfbench's own netsim cells all
  run the base threat, so this is the test that sees a threat composition
  (a grayhole's relay filter, a liar clique) change byte for byte.  It was
  generated at commit 912446f.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.backends import (
    build_netsim_scenario,
    drive_netsim_scenario,
    run_netsim_cell,
    scenario_config_from_params,
)
from repro.experiments.engine import run_experiment
from repro.scenarios import apply_profile, list_profiles

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "figure1_netsim_parity.json"


def test_olsr_figure1_rows_match_pre_refactor_fixture():
    """OLSR figure outputs stay row-identical to a fixed fixture.

    The fixture was generated by ``run_experiment("figure1",
    backend="netsim")`` before a refactor of the node stack; any drift in
    RNG draw order, message sequencing or scenario wiring shows up here as
    a row diff.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    result = run_experiment("figure1", backend="netsim",
                            params=golden["params"])
    assert json.dumps(result.rows(), sort_keys=True) == \
        json.dumps(golden["rows"], sort_keys=True)


def test_olsr_netsim_rounds_match_pre_refactor_fixture():
    """Per-round detect values of one netsim cell are byte-stable too."""
    golden = json.loads(GOLDEN_PATH.read_text())
    params = golden["params"]
    config = scenario_config_from_params(params, seed=7)
    cell = run_netsim_cell(config, params)
    assert cell.investigator == golden["investigator"]
    assert cell.attacker == golden["attacker"]
    assert sorted(cell.liars) == sorted(golden["liars"])
    rounds = [
        {"round_index": r.round_index, "attack_active": r.attack_active,
         "detect_value": r.detect_value, "outcome": str(r.outcome),
         "margin": r.margin, "answers": r.answers, "unreached": r.unreached}
        for r in cell.rounds
    ]
    assert json.dumps(rounds, sort_keys=True) == \
        json.dumps(golden["rounds"], sort_keys=True)


# ------------------------------------------------------------ profile cells
PROFILE_CELLS = json.loads((GOLDEN_DIR / "profile_cells.json").read_text())


def _profile_cell(profile: str) -> dict:
    params = apply_profile(dict(PROFILE_CELLS["params"], profile=profile))
    config = scenario_config_from_params(params, PROFILE_CELLS["seed"])
    scenario = build_netsim_scenario(config, params)
    result = drive_netsim_scenario(scenario, config, params)
    stats = scenario.network.medium.stats
    return {
        "rounds": [dataclasses.asdict(record) for record in result.rounds],
        "decisions": [(d.suspect, d.detect_value, str(d.outcome), d.interval.margin)
                      for d in scenario.victim.decision_history],
        "events": int(result.stats["events_processed"]),
        "frames": [stats.frames_sent, stats.frames_delivered, stats.frames_lost,
                   stats.frames_collided, stats.frames_out_of_range,
                   stats.frames_unroutable],
    }


def test_profile_cells_cover_every_registered_profile():
    assert sorted(PROFILE_CELLS["cells"]) == sorted(p.name for p in list_profiles())


@pytest.mark.parametrize("profile", sorted(PROFILE_CELLS["cells"]))
def test_profile_cell_matches_golden(profile):
    assert json.dumps(_profile_cell(profile), sort_keys=True, default=str) == \
        json.dumps(PROFILE_CELLS["cells"][profile], sort_keys=True)
