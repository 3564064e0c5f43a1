"""Tests for the MPR selection heuristic (RFC 3626 §8.3.1)."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.olsr.constants import Willingness
from repro.olsr.mpr import mpr_coverage_complete, select_mprs
from tests import reference


def test_empty_two_hop_set_selects_no_mprs():
    result = select_mprs(symmetric_neighbors={"a", "b"}, coverage={"a": set(), "b": set()})
    assert result.mprs == set()
    assert result.uncovered == set()


def test_sole_provider_always_selected():
    result = select_mprs(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"x"}, "b": {"y"}},
    )
    assert result.mprs == {"a", "b"}
    assert result.isolated_two_hops == {"x": "a", "y": "b"}


def test_greedy_selects_best_coverage():
    result = select_mprs(
        symmetric_neighbors={"a", "b", "c"},
        coverage={"a": {"x", "y", "z"}, "b": {"x"}, "c": {"y"}},
    )
    assert result.mprs == {"a"}


def test_coverage_invariant_holds():
    coverage = {"a": {"x", "y"}, "b": {"y", "z"}, "c": {"z", "w"}}
    result = select_mprs(symmetric_neighbors={"a", "b", "c"}, coverage=coverage)
    two_hop = {"x", "y", "z", "w"}
    assert mpr_coverage_complete(result.mprs, coverage, two_hop)


def test_will_never_excluded_even_if_only_provider():
    result = select_mprs(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"x"}, "b": set()},
        willingness={"a": Willingness.WILL_NEVER},
    )
    assert "a" not in result.mprs
    assert result.uncovered == {"x"}


def test_will_always_selected_even_without_coverage():
    result = select_mprs(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"x"}, "b": set()},
        willingness={"b": Willingness.WILL_ALWAYS},
    )
    assert "b" in result.mprs
    assert "a" in result.mprs


def test_willingness_breaks_ties():
    # Both cover the same two 2-hop nodes; the more willing one must win.
    result = select_mprs(
        symmetric_neighbors={"low", "high"},
        coverage={"low": {"x", "y"}, "high": {"x", "y"}},
        willingness={"low": Willingness.WILL_LOW, "high": Willingness.WILL_HIGH},
    )
    assert result.mprs == {"high"}


def test_own_address_and_one_hop_neighbors_excluded_from_two_hop_set():
    result = select_mprs(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"me", "b"}, "b": {"a"}},
        local_address="me",
    )
    # Nothing is a genuine 2-hop node, so no MPR is needed.
    assert result.mprs == set()


def test_redundant_mpr_pruned():
    # "big" covers everything "small" covers and more.
    result = select_mprs(
        symmetric_neighbors={"big", "small"},
        coverage={"big": {"x", "y", "z"}, "small": {"x"}},
    )
    assert result.mprs == {"big"}


def test_prune_can_be_disabled():
    coverage = {"big": {"x", "y", "z"}, "small": {"x"}}
    pruned = select_mprs(symmetric_neighbors={"big", "small"}, coverage=coverage)
    unpruned = select_mprs(symmetric_neighbors={"big", "small"}, coverage=coverage,
                           prune_redundant=False)
    assert pruned.mprs <= unpruned.mprs
    # "small" is the sole provider of nothing, so even unpruned it is only
    # selected if the greedy pass needed it; the invariant must hold either way.
    assert mpr_coverage_complete(unpruned.mprs, coverage, {"x", "y", "z"})


def test_redundancy_parameter_keeps_extra_mprs():
    coverage = {"a": {"x", "y"}, "b": {"x", "y"}}
    default = select_mprs(symmetric_neighbors={"a", "b"}, coverage=coverage)
    redundant = select_mprs(symmetric_neighbors={"a", "b"}, coverage=coverage, redundancy=1)
    assert len(default.mprs) == 1
    assert redundant.mprs == {"a", "b"}


def test_unreachable_two_hop_reported_uncovered():
    result = select_mprs(
        symmetric_neighbors={"a"},
        coverage={"a": set()},
    )
    assert result.uncovered == set()
    result2 = select_mprs(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"x"}, "b": {"y"}},
        willingness={"a": Willingness.WILL_NEVER},
    )
    assert "x" in result2.uncovered


def test_deterministic_tie_break_is_stable():
    coverage = {"n1": {"x"}, "n2": {"x"}}
    results = {
        frozenset(select_mprs(symmetric_neighbors={"n1", "n2"}, coverage=coverage).mprs)
        for _ in range(10)
    }
    assert len(results) == 1


def test_larger_topology_coverage_invariant():
    symmetric = {f"n{i}" for i in range(6)}
    coverage = {
        "n0": {"t0", "t1"},
        "n1": {"t1", "t2"},
        "n2": {"t2", "t3"},
        "n3": {"t3", "t4"},
        "n4": {"t4", "t5"},
        "n5": {"t5", "t0"},
    }
    result = select_mprs(symmetric_neighbors=symmetric, coverage=coverage)
    assert mpr_coverage_complete(result.mprs, coverage, {f"t{i}" for i in range(6)})
    assert len(result.mprs) <= 6


# ------------------------------------------------------------------- oracle
_ONE_HOP = [f"n{i:02d}" for i in range(20)]
_TWO_HOP = [f"t{i}" for i in range(8)]


@st.composite
def _neighbourhoods(draw):
    """Up to 20 symmetric neighbours whose HELLOs name the selecting node
    ("me"), 1-hop neighbours (each neighbour itself among them) and 2-hop
    addresses, with any willingness, redundancy and pruning."""
    symmetric = draw(st.sets(st.sampled_from(_ONE_HOP), max_size=20))
    names = sorted(symmetric)
    advertised = st.one_of(st.sampled_from(_TWO_HOP), st.sampled_from(["me"] + names))
    coverage = {name: draw(st.sets(advertised, max_size=8)) for name in names}
    willingness, degree = {}, None
    if names:
        willingness = draw(st.dictionaries(st.sampled_from(names),
                                           st.sampled_from(list(Willingness))))
        degree = draw(st.none() | st.dictionaries(st.sampled_from(names),
                                                  st.integers(0, 12)))
    return dict(symmetric_neighbors=symmetric, coverage=coverage,
                willingness=willingness, neighbor_degree=degree,
                local_address="me", prune_redundant=draw(st.booleans()),
                redundancy=draw(st.integers(0, 2)))


#: With redundancy 1, n0 and n2 are each redundant alone but not both:
#: pruning one of them (which one follows the set order) keeps the other.
_PRUNE_INTERPLAY = dict(
    symmetric_neighbors={"n0", "n1", "n2", "n3"},
    coverage={"n0": {"t0", "t1"}, "n1": {"t0", "t2"}, "n2": {"t0", "t1"},
              "n3": {"t1", "t2"}},
    willingness={}, neighbor_degree=None, local_address="me",
    prune_redundant=True, redundancy=1)


@given(inputs=_neighbourhoods())
@example(inputs=_PRUNE_INTERPLAY)
@settings(max_examples=300, deadline=None)
def test_selection_equals_the_recounting_oracle(inputs):
    expected = reference.select_mprs(**inputs)
    symmetric = set(inputs["symmetric_neighbors"])
    coverage = {name: set(covered) for name, covered in inputs["coverage"].items()}
    result = select_mprs(**inputs)
    assert result.mprs == expected.mprs
    assert result.uncovered == expected.uncovered
    assert result.coverage == expected.coverage
    assert list(result.coverage) == list(expected.coverage)
    assert list(result.isolated_two_hops.items()) == list(expected.isolated_two_hops.items())
    # The node's selection gate keeps the symmetric set it passed in.
    assert inputs["symmetric_neighbors"] == symmetric
    assert inputs["coverage"] == coverage
