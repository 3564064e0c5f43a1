"""Golden regression tests for RFC 3626 MPR selection on fixed topologies.

Each case pins the exact MPR set the heuristic must produce on a
hand-checked topology, *and* asserts the RFC §8.3.1 coverage property
through the same code path the validation harness uses
(:func:`repro.validation.check_mpr_coverage` /
:func:`repro.olsr.mpr.mpr_coverage_complete`), so a regression in either
the heuristic or the invariant checker trips these before a fuzzing
campaign has to find it.
"""

from __future__ import annotations

from repro.olsr.constants import Willingness
from repro.olsr.mpr import mpr_coverage_complete
from repro.experiments.scenario import build_canonical_scenario, build_manet_scenario
from repro.validation import check_mpr_coverage
from tests.reference import select_by_address


def _coverage_property(result, coverage, symmetric, local="self"):
    """The RFC coverage property, via the shared helper."""
    two_hop = set()
    for neighbor in symmetric:
        two_hop |= {
            a for a in coverage.get(neighbor, set())
            if a not in symmetric and a not in (local, neighbor)
        }
    return mpr_coverage_complete(result.mprs, result.coverage,
                                 two_hop - result.uncovered)


# ----------------------------------------------------------- fixed topologies
def test_golden_chain_topology():
    # self - a - x : a is the only bridge, so it must be the single MPR.
    symmetric = {"a"}
    coverage = {"a": {"x"}}
    result = select_by_address(symmetric, coverage, local_address="self")
    assert result.mprs == {"a"}
    assert _coverage_property(result, coverage, symmetric)


def test_golden_diamond_prefers_higher_coverage():
    # b covers both 2-hop nodes, a covers one of them: b alone suffices.
    symmetric = {"a", "b"}
    coverage = {"a": {"x"}, "b": {"x", "y"}}
    result = select_by_address(symmetric, coverage, local_address="self")
    assert result.mprs == {"b"}
    assert _coverage_property(result, coverage, symmetric)


def test_golden_sole_provider_beats_coverage_count():
    # c covers the most, but a and b are sole providers of x and y.
    symmetric = {"a", "b", "c"}
    coverage = {"a": {"x"}, "b": {"y"}, "c": {"p", "q"}}
    result = select_by_address(symmetric, coverage, local_address="self")
    assert result.mprs == {"a", "b", "c"}
    assert _coverage_property(result, coverage, symmetric)


def test_golden_willingness_tie_break():
    # a and b each cover both 2-hop nodes; the higher willingness wins.
    symmetric = {"a", "b"}
    coverage = {"a": {"x", "y"}, "b": {"x", "y"}}
    result = select_by_address(
        symmetric, coverage,
        willingness={"b": Willingness.WILL_HIGH},
        local_address="self",
    )
    assert result.mprs == {"b"}
    assert _coverage_property(result, coverage, symmetric)


def test_golden_will_never_neighbors_are_excluded():
    # The only provider of x is WILL_NEVER: x must surface as uncovered,
    # never silently "covered" by an ineligible neighbour.
    symmetric = {"a", "b"}
    coverage = {"a": {"x"}, "b": {"y"}}
    result = select_by_address(
        symmetric, coverage,
        willingness={"a": Willingness.WILL_NEVER},
        local_address="self",
    )
    assert result.mprs == {"b"}
    assert result.uncovered == {"x"}
    assert _coverage_property(result, coverage, symmetric)


def test_golden_own_address_and_one_hops_excluded_from_two_hop_set():
    # Addresses equal to the selector or inside N are not 2-hop targets.
    symmetric = {"a", "b"}
    coverage = {"a": {"self", "b"}, "b": {"a"}}
    result = select_by_address(symmetric, coverage, local_address="self")
    assert result.mprs == set()
    assert result.uncovered == set()


# --------------------------------------------- live scenarios, shared checker
def test_canonical_scenario_satisfies_mpr_invariant():
    scenario = build_canonical_scenario(seed=11)
    scenario.warm_up(30.0)
    assert check_mpr_coverage(scenario) == []
    # The canonical topology is engineered so the victim needs an MPR.
    assert scenario.victim.router.mpr_set


def test_random_manet_satisfies_mpr_invariant_across_seeds():
    for seed in (1, 5, 23):
        scenario = build_manet_scenario(node_count=12, liar_count=2, seed=seed)
        scenario.warm_up(30.0)
        assert check_mpr_coverage(scenario) == [], f"seed {seed}"
