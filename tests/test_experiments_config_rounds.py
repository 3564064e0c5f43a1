"""Tests for the experiment configuration and the round-based driver."""

from __future__ import annotations

import pytest

from repro.core.decision import DecisionOutcome
from repro.experiments.backends import scenario_config_from_params
from repro.experiments.config import ScenarioConfig
from repro.experiments.engine import get_experiment
from repro.experiments.rounds import RoundBasedExperiment


def _cell_configs(name):
    """The scenario configuration of each cell of a registered experiment."""
    definition = get_experiment(name)
    configs = []
    for spec in definition.expand():
        params = spec.params_dict()
        if definition.resolve_params is not None:
            params = definition.resolve_params(params)
        configs.append(scenario_config_from_params(params, spec.seed))
    return configs


def test_paper_default_matches_evaluation_section():
    (config,) = _cell_configs("figure1")
    assert config.total_nodes == 16
    assert config.liar_count == 4
    assert config.rounds == 25
    assert config.trust.default_trust == pytest.approx(0.4)
    assert config.attack_stop_round is None


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(total_nodes=2)
    with pytest.raises(ValueError):
        ScenarioConfig(rounds=0)
    with pytest.raises(ValueError):
        ScenarioConfig(liar_fraction=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(total_nodes=5, liar_count=10)


def test_inverted_initial_trust_interval_is_rejected():
    # random.uniform would silently swap the bounds.
    with pytest.raises(ValueError, match="initial_trust_min .*initial_trust_max"):
        ScenarioConfig(initial_trust_min=0.9, initial_trust_max=0.1)
    ScenarioConfig(initial_trust_min=0.5, initial_trust_max=0.5)


def test_liar_sizing_helpers():
    config = ScenarioConfig(total_nodes=16, liar_count=4)
    assert config.responder_count() == 14
    assert config.effective_liar_count() == 4
    assert config.liar_percentage() == pytest.approx(100 * 4 / 14)
    fraction_config = ScenarioConfig(total_nodes=16, liar_fraction=0.5)
    assert fraction_config.effective_liar_count() == 7


def test_with_overrides_copies():
    config = ScenarioConfig()
    other = config.with_overrides(rounds=5)
    assert other.rounds == 5
    assert config.rounds == 25


def test_figure2_config_has_attack_cutoff():
    (config,) = _cell_configs("figure2")
    assert config.attack_stop_round is not None
    assert config.rounds > config.attack_stop_round


def test_figure3_configs_sweep_liar_ratio():
    configs = _cell_configs("figure3")
    counts = [config.effective_liar_count() for config in configs]
    assert len(set(counts)) == len(counts)
    assert max(counts) < min(config.responder_count() for config in configs)


# --------------------------------------------------------------------- driver
def test_experiment_population_split():
    experiment = RoundBasedExperiment(ScenarioConfig(seed=1))
    assert len(experiment.responder_ids) == 14
    assert len(experiment.liar_ids) == 4
    assert experiment.liar_ids <= set(experiment.responder_ids)
    assert experiment.attacker_id not in experiment.responder_ids
    assert experiment.investigator_id not in experiment.responder_ids


def test_experiment_reproducible_with_same_seed():
    a = RoundBasedExperiment(ScenarioConfig(seed=5)).run()
    b = RoundBasedExperiment(ScenarioConfig(seed=5)).run()
    assert a.liars == b.liars
    assert [r.detect_value for r in a.rounds] == [r.detect_value for r in b.rounds]
    assert a.trust_trajectories() == b.trust_trajectories()


def test_experiment_different_seeds_differ():
    a = RoundBasedExperiment(ScenarioConfig(seed=5)).run()
    b = RoundBasedExperiment(ScenarioConfig(seed=6)).run()
    assert a.initial_trust != b.initial_trust


def test_random_initial_trust_within_bounds():
    config = ScenarioConfig(seed=3, initial_trust_min=0.2, initial_trust_max=0.6)
    experiment = RoundBasedExperiment(config)
    result = experiment.run(rounds=1)
    for node, value in result.initial_trust.items():
        assert 0.2 <= value <= 0.6


def test_fixed_initial_trust_option():
    config = ScenarioConfig(seed=3, random_initial_trust=False)
    experiment = RoundBasedExperiment(config)
    result = experiment.run(rounds=1)
    assert all(v == pytest.approx(config.trust.default_trust)
               for v in result.initial_trust.values())


def test_run_produces_one_record_per_round():
    result = RoundBasedExperiment(ScenarioConfig(seed=2, rounds=10)).run()
    assert len(result.rounds) == 10
    assert all(record.round_index == i for i, record in enumerate(result.rounds))


def test_detection_trends_negative_with_minority_liars():
    result = RoundBasedExperiment(ScenarioConfig(seed=4)).run()
    detect = result.detect_values()
    assert detect[0] > detect[-1]
    assert detect[-1] < -0.8
    assert result.final_outcome() == DecisionOutcome.INTRUDER


def test_attacker_trust_collapses_and_honest_trust_grows():
    result = RoundBasedExperiment(ScenarioConfig(seed=4)).run()
    attacker_trajectory = result.trust_trajectory(result.attacker)
    assert attacker_trajectory[-1] < 0.1
    for honest in result.honest_responders:
        trajectory = result.trust_trajectory(honest)
        assert trajectory[-1] >= result.initial_trust[honest] - 1e-9


def test_liar_trust_decreases_regardless_of_initial_value():
    result = RoundBasedExperiment(ScenarioConfig(seed=4)).run()
    for liar in result.liars:
        trajectory = result.trust_trajectory(liar)
        assert trajectory[-1] < result.initial_trust[liar]
        assert trajectory[-1] < 0.1


def test_attack_stop_round_switches_to_decay():
    config = ScenarioConfig(seed=4, rounds=20, attack_stop_round=5)
    experiment = RoundBasedExperiment(config)
    result = experiment.run()
    active_rounds = [r for r in result.rounds if r.attack_active]
    decay_rounds = [r for r in result.rounds if not r.attack_active]
    assert len(active_rounds) == 5
    assert len(decay_rounds) == 15
    assert all(r.detect_value is None for r in decay_rounds)


def test_role_of_classification():
    result = RoundBasedExperiment(ScenarioConfig(seed=4)).run(rounds=1)
    assert result.role_of(result.attacker) == "attacker"
    assert result.role_of(result.investigator) == "investigator"
    liar = next(iter(result.liars))
    honest = next(iter(result.honest_responders))
    assert result.role_of(liar) == "liar"
    assert result.role_of(honest) == "honest"


def test_answer_loss_produces_missing_answers():
    config = ScenarioConfig(seed=4, answer_loss_probability=0.5, rounds=5)
    result = RoundBasedExperiment(config).run()
    missing = sum(
        1 for record in result.rounds for value in record.answers.values() if value == 0.0
    )
    assert missing > 0


def test_unweighted_ablation_converges_slower_or_not_at_all():
    weighted = RoundBasedExperiment(ScenarioConfig(seed=4)).run()
    unweighted = RoundBasedExperiment(
        ScenarioConfig(seed=4, use_trust_weighting=False)).run()
    assert weighted.detect_values()[-1] < unweighted.detect_values()[-1]


def test_close_on_decision_stops_further_investigations():
    config = ScenarioConfig(seed=4, close_on_decision=True, gamma=0.4, rounds=25)
    result = RoundBasedExperiment(config).run()
    investigated = [r for r in result.rounds if r.detect_value is not None]
    assert len(investigated) < 25
    assert investigated[-1].outcome == DecisionOutcome.INTRUDER
