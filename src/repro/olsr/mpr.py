"""MPR selection heuristic (RFC 3626 §8.3.1).

Given the 1-hop symmetric neighbours ``N`` (with willingness) and the strict
2-hop neighbourhood ``N2`` with its coverage map, compute a multipoint-relay
set that covers every node of ``N2``.

The heuristic is the one of the RFC:

1. Exclude neighbours with willingness ``WILL_NEVER``.
2. Always select neighbours with willingness ``WILL_ALWAYS``.
3. Select neighbours that are the *only* provider of some 2-hop node.
4. While uncovered 2-hop nodes remain, select the most willing neighbour
   covering some of them, breaking ties by higher reachability, then higher
   degree D(y) (the size of its strict coverage), then lexicographic
   address (for determinism).
5. Prune redundant MPRs (nodes whose removal keeps full coverage), in
   order of (willingness, coverage size, address): the address tie-break
   keeps the result independent of set iteration order, and so of
   ``PYTHONHASHSEED``.

The prune keeps one map from 2-hop address to the number of selected MPRs
covering it, built once and decremented on each discard, so it costs
O(M·C) for M MPRs covering C addresses each instead of recounting the
other MPRs' coverage for every MPR (O(M²·C)).  ``tests/reference/mpr.py``
keeps the recounting selection as the oracle it must equal.

The greedy loop runs on Python sets.  A numpy coverage-matrix twin measured
slower at every neighbourhood size the shipped workloads reach (6–24 median
neighbours), so there is none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set

from repro.olsr.constants import Willingness


@dataclass
class MprComputationResult:
    """Outcome of an MPR computation, with enough detail for audit logs."""

    mprs: Set[str] = field(default_factory=set)
    uncovered: Set[str] = field(default_factory=set)
    coverage: Dict[str, Set[str]] = field(default_factory=dict)
    isolated_two_hops: Dict[str, str] = field(default_factory=dict)
    """2-hop address -> the sole neighbour providing it (evidence E3 material)."""


def select_mprs(
    symmetric_neighbors: Set[str],
    coverage: Mapping[str, Set[str]],
    willingness: Optional[Mapping[str, Willingness]] = None,
    local_address: Optional[str] = None,
) -> MprComputationResult:
    """Compute the MPR set.

    Parameters
    ----------
    symmetric_neighbors:
        The 1-hop symmetric neighbourhood ``N``.
    coverage:
        Mapping neighbour -> set of 2-hop addresses it claims to reach.
        Addresses equal to ``local_address`` or inside ``N`` are excluded from
        the 2-hop set per the RFC.
    willingness:
        Optional willingness per neighbour (default ``WILL_DEFAULT``).
    local_address:
        The selecting node's own address (excluded from the 2-hop set).
    """
    willingness = willingness or {}

    def will(neighbor: str) -> Willingness:
        return willingness.get(neighbor, Willingness.WILL_DEFAULT)

    candidates = {
        n for n in symmetric_neighbors if will(n) != Willingness.WILL_NEVER
    }

    # Strict 2-hop set: exclude ourselves and the 1-hop neighbourhood (which
    # holds each neighbour itself).  It is built from *every* symmetric
    # neighbour's coverage so that 2-hop nodes only reachable through
    # WILL_NEVER neighbours show up as uncovered.
    excluded = set(symmetric_neighbors)
    excluded.add(local_address)
    two_hop_set: Set[str] = set()
    effective_coverage: Dict[str, Set[str]] = {}
    for neighbor in symmetric_neighbors:
        claimed = coverage.get(neighbor)
        covered = set() if claimed is None else claimed - excluded
        if neighbor in candidates:
            effective_coverage[neighbor] = covered
        two_hop_set |= covered

    result = MprComputationResult(coverage=effective_coverage)

    if not two_hop_set:
        # Still honour WILL_ALWAYS neighbours (RFC step 1).
        result.mprs = {n for n in candidates if will(n) == Willingness.WILL_ALWAYS}
        return result

    # The willing neighbours covering each 2-hop address, in
    # ``effective_coverage`` order.
    providers: Dict[str, List[str]] = {}
    for neighbor, covered in effective_coverage.items():
        for address in covered:
            listed = providers.get(address)
            if listed is None:
                providers[address] = [neighbor]
            else:
                listed.append(neighbor)

    mprs = _select_greedy(candidates, effective_coverage, providers, two_hop_set,
                          will, result)

    # How many selected MPRs cover each 2-hop address; kept current through
    # the pruning discards below.
    count: Dict[str, int] = {}
    for mpr in mprs:
        for address in effective_coverage[mpr]:
            count[address] = count.get(address, 0) + 1

    # Step 5: prune redundant MPRs (keep WILL_ALWAYS and sole providers).  An
    # MPR is redundant when every address it covers is covered by another
    # MPR too; discarding it decrements its addresses.
    if len(mprs) > 1:
        for neighbor in sorted(mprs, key=lambda n: (int(will(n)),
                                                    len(effective_coverage[n]), n)):
            if will(neighbor) == Willingness.WILL_ALWAYS:
                continue
            covered = effective_coverage[neighbor]
            if all(count[address] > 1 for address in covered):
                mprs.discard(neighbor)
                for address in covered:
                    count[address] -= 1

    result.mprs = mprs
    return result


def _select_greedy(
    candidates: Set[str],
    effective_coverage: Dict[str, Set[str]],
    providers: Dict[str, List[str]],
    two_hop_set: Set[str],
    will: Callable[[str], Willingness],
    result: MprComputationResult,
) -> Set[str]:
    """Steps 1, 3 and 4 of the RFC heuristic."""
    uncovered = set(two_hop_set)
    mprs: Set[str] = set()

    # Step 1: WILL_ALWAYS neighbours are always selected.
    for neighbor in sorted(candidates):
        if will(neighbor) == Willingness.WILL_ALWAYS:
            mprs.add(neighbor)
            uncovered -= effective_coverage[neighbor]

    # Step 3 (RFC numbering): select neighbours that are the only provider of
    # some 2-hop node.
    for address, listed in sorted(providers.items()):
        if len(listed) == 1:
            sole = listed[0]
            result.isolated_two_hops[address] = sole
            if address in uncovered:
                mprs.add(sole)
                uncovered -= effective_coverage[sole]

    # Step 4: greedy selection by reachability.
    while uncovered:
        best: Optional[str] = None
        best_key = None
        for neighbor in sorted(candidates - mprs):
            reach = len(effective_coverage[neighbor] & uncovered)
            if reach == 0:
                continue
            key = (
                int(will(neighbor)),
                reach,
                len(effective_coverage[neighbor]),
                # lexicographically smaller address wins ties; negate by using
                # reversed comparison via tuple ordering below
            )
            if best is None or key > best_key or (key == best_key and neighbor < best):
                best, best_key = neighbor, key
        if best is None:
            # Remaining 2-hop nodes are unreachable through any candidate.
            result.uncovered = uncovered
            break
        mprs.add(best)
        uncovered -= effective_coverage[best]
    return mprs


def mpr_coverage_complete(
    mprs: Set[str],
    coverage: Mapping[str, Set[str]],
    two_hop_set: Iterable[str],
) -> bool:
    """Check the MPR invariant: every 2-hop node is covered by at least one MPR."""
    covered: Set[str] = set()
    for mpr in mprs:
        covered |= set(coverage.get(mpr, set()))
    return set(two_hop_set) <= covered
