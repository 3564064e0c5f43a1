"""Tests for the MPR selection heuristic (RFC 3626 §8.3.1).

The selection runs on masks; :func:`tests.reference.select_by_address`
builds them from address sets and decodes the result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.olsr.constants import Willingness
from repro.olsr.mpr import mpr_coverage_complete
from tests import reference
from tests.reference import select_by_address


def test_empty_two_hop_set_selects_no_mprs():
    result = select_by_address(symmetric_neighbors={"a", "b"},
                               coverage={"a": set(), "b": set()})
    assert result.mprs == set()
    assert result.uncovered == set()


def test_sole_provider_always_selected():
    result = select_by_address(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"x"}, "b": {"y"}},
    )
    assert result.mprs == {"a", "b"}


def test_greedy_selects_best_coverage():
    result = select_by_address(
        symmetric_neighbors={"a", "b", "c"},
        coverage={"a": {"x", "y", "z"}, "b": {"x"}, "c": {"y"}},
    )
    assert result.mprs == {"a"}


def test_coverage_invariant_holds():
    coverage = {"a": {"x", "y"}, "b": {"y", "z"}, "c": {"z", "w"}}
    result = select_by_address(symmetric_neighbors={"a", "b", "c"}, coverage=coverage)
    two_hop = {"x", "y", "z", "w"}
    assert mpr_coverage_complete(result.mprs, coverage, two_hop)


def test_will_never_excluded_even_if_only_provider():
    result = select_by_address(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"x"}, "b": set()},
        willingness={"a": Willingness.WILL_NEVER},
    )
    assert "a" not in result.mprs
    assert result.uncovered == {"x"}


def test_will_always_selected_even_without_coverage():
    result = select_by_address(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"x"}, "b": set()},
        willingness={"b": Willingness.WILL_ALWAYS},
    )
    assert "b" in result.mprs
    assert "a" in result.mprs


def test_willingness_breaks_ties():
    # Both cover the same two 2-hop nodes; the more willing one must win.
    result = select_by_address(
        symmetric_neighbors={"low", "high"},
        coverage={"low": {"x", "y"}, "high": {"x", "y"}},
        willingness={"low": Willingness.WILL_LOW, "high": Willingness.WILL_HIGH},
    )
    assert result.mprs == {"high"}


def test_own_address_and_one_hop_neighbors_excluded_from_two_hop_set():
    result = select_by_address(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"me", "b"}, "b": {"a"}},
        local_address="me",
    )
    # Nothing is a genuine 2-hop node, so no MPR is needed.
    assert result.mprs == set()


def test_redundant_mpr_pruned():
    # "big" covers everything "small" covers and more.
    result = select_by_address(
        symmetric_neighbors={"big", "small"},
        coverage={"big": {"x", "y", "z"}, "small": {"x"}},
    )
    assert result.mprs == {"big"}


def test_unreachable_two_hop_reported_uncovered():
    result = select_by_address(
        symmetric_neighbors={"a"},
        coverage={"a": set()},
    )
    assert result.uncovered == set()
    result2 = select_by_address(
        symmetric_neighbors={"a", "b"},
        coverage={"a": {"x"}, "b": {"y"}},
        willingness={"a": Willingness.WILL_NEVER},
    )
    assert "x" in result2.uncovered


def test_deterministic_tie_break_is_stable():
    coverage = {"n1": {"x"}, "n2": {"x"}}
    results = {
        frozenset(select_by_address(symmetric_neighbors={"n1", "n2"}, coverage=coverage).mprs)
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
    result = select_by_address(symmetric_neighbors=symmetric, coverage=coverage)
    assert mpr_coverage_complete(result.mprs, coverage, {f"t{i}" for i in range(6)})
    assert len(result.mprs) <= 6


# ------------------------------------------------------------------- oracle
_ONE_HOP = [f"n{i:02d}" for i in range(20)]
_TWO_HOP = [f"t{i}" for i in range(8)]


@st.composite
def _neighbourhoods(draw):
    """Up to 20 symmetric neighbours whose HELLOs name the selecting node
    ("me"), 1-hop neighbours (each neighbour itself among them) and 2-hop
    addresses, with any willingness: the inputs ``OlsrNode`` passes."""
    symmetric = draw(st.sets(st.sampled_from(_ONE_HOP), max_size=20))
    names = sorted(symmetric)
    advertised = st.one_of(st.sampled_from(_TWO_HOP), st.sampled_from(["me"] + names))
    coverage = {name: draw(st.sets(advertised, max_size=8)) for name in names}
    willingness = {}
    if names:
        willingness = draw(st.dictionaries(st.sampled_from(names),
                                           st.sampled_from(list(Willingness))))
    return dict(symmetric_neighbors=symmetric, coverage=coverage,
                willingness=willingness, local_address="me")


#: The greedy pass selects n1, n2 and n3.  n1 and n2 tie on willingness and
#: coverage size and are each redundant alone but not both: the prune takes
#: n1 first by address, discards it and must then keep n2.
_PRUNE_TIE = dict(
    symmetric_neighbors={"n0", "n1", "n2", "n3"},
    coverage={"n0": {"t0", "t1"}, "n1": {"t0", "t3"}, "n2": {"t3", "t2"},
              "n3": {"t0", "t2", "t1"}},
    willingness={"n1": Willingness.WILL_HIGH, "n2": Willingness.WILL_HIGH},
    local_address="me")


@pytest.mark.parametrize("hash_seed", ["0", "2"])
def test_prune_ties_do_not_follow_the_hash_seed(hash_seed):
    """Set iteration order follows ``PYTHONHASHSEED``; the prune's order
    must not, so both interpreters keep {n2, n3}."""
    root = Path(__file__).resolve().parent.parent
    script = ("from tests.reference import select_by_address\n"
              "from tests.test_olsr_mpr import _PRUNE_TIE\n"
              "print(sorted(select_by_address(**_PRUNE_TIE).mprs))\n")
    process = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=root,
        env={"PYTHONHASHSEED": hash_seed,
             "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])},
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout == "['n2', 'n3']\n"


#: Every address a neighbourhood can name, for the index's bit order.
_ADDRESSES = ["me"] + _ONE_HOP + _TWO_HOP


@given(inputs=_neighbourhoods(), bit_order=st.permutations(_ADDRESSES))
@example(inputs=_PRUNE_TIE, bit_order=_ADDRESSES)
@example(inputs=_PRUNE_TIE, bit_order=_ADDRESSES[::-1])
@settings(max_examples=300, deadline=None)
def test_selection_equals_the_recounting_oracle(inputs, bit_order):
    """The mask selection equals the set-based oracle whatever bit each
    address gets."""
    expected = reference.select_mprs(**inputs)
    symmetric = set(inputs["symmetric_neighbors"])
    coverage = {name: set(covered) for name, covered in inputs["coverage"].items()}
    result = select_by_address(**inputs, bit_order=bit_order)
    assert result.mprs == expected.mprs
    assert result.uncovered == expected.uncovered
    assert result.coverage == expected.coverage
    # The node's selection gate keeps the symmetric set it passed in.
    assert inputs["symmetric_neighbors"] == symmetric
    assert inputs["coverage"] == coverage
