"""The MPR selection that recounts coverage per MPR: the selection oracle."""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Set

from repro.olsr.constants import Willingness
from repro.olsr.mpr import MprComputationResult


def select_mprs(
    symmetric_neighbors: Set[str],
    coverage: Mapping[str, Set[str]],
    willingness: Optional[Mapping[str, Willingness]] = None,
    local_address: Optional[str] = None,
) -> MprComputationResult:
    """RFC 3626 §8.3.1 selection, as :func:`repro.olsr.mpr.select_mprs` was
    before it pruned with one coverage-count map.

    Its redundancy prune rebuilds the coverage count of the other MPRs for
    every MPR it considers, and it keeps providers as sets and builds each
    neighbour's strict coverage address by address.  The program's
    selection must return the same MPR set, uncovered set, coverage map and
    isolated 2-hop addresses.

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

    # Strict 2-hop set: exclude ourselves and the 1-hop neighbourhood.  It is
    # built from *every* symmetric neighbour's coverage so that 2-hop nodes
    # only reachable through WILL_NEVER neighbours show up as uncovered.
    two_hop_set: Set[str] = set()
    effective_coverage: Dict[str, Set[str]] = {}
    for neighbor in symmetric_neighbors:
        covered = {
            address
            for address in coverage.get(neighbor, set())
            if address not in symmetric_neighbors and address != local_address and address != neighbor
        }
        if neighbor in candidates:
            effective_coverage[neighbor] = covered
        two_hop_set |= covered

    result = MprComputationResult(coverage=effective_coverage)

    if not two_hop_set:
        # Still honour WILL_ALWAYS neighbours (RFC step 1).
        result.mprs = {n for n in candidates if will(n) == Willingness.WILL_ALWAYS}
        return result

    mprs = _select_greedy(candidates, effective_coverage, two_hop_set, will,
                          result)

    # Step 5: prune redundant MPRs (keep WILL_ALWAYS and sole providers),
    # ties in (willingness, coverage size) taken in address order.
    if len(mprs) > 1:
        for neighbor in sorted(mprs, key=lambda n: (int(will(n)),
                                                    len(effective_coverage[n]), n)):
            if will(neighbor) == Willingness.WILL_ALWAYS:
                continue
            others = mprs - {neighbor}
            covered_by_others: Dict[str, int] = {}
            for other in others:
                for address in effective_coverage[other]:
                    covered_by_others[address] = covered_by_others.get(address, 0) + 1
            still_needed = any(
                covered_by_others.get(address, 0) < 1
                for address in effective_coverage[neighbor]
                if address in two_hop_set
            )
            if not still_needed:
                mprs.discard(neighbor)

    result.mprs = mprs
    return result


def _select_greedy(
    candidates: Set[str],
    effective_coverage: Dict[str, Set[str]],
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
    providers: Dict[str, Set[str]] = {}
    for neighbor, covered in effective_coverage.items():
        for address in covered:
            providers.setdefault(address, set()).add(neighbor)
    for address, provider_set in sorted(providers.items()):
        if len(provider_set) == 1:
            sole = next(iter(provider_set))
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
