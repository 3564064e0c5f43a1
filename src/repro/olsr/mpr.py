"""MPR selection heuristic (RFC 3626 §8.3.1), on coverage masks.

Given the 1-hop symmetric neighbours ``N`` (with willingness) and each
one's coverage, compute a multipoint-relay set that covers every node of
the strict 2-hop neighbourhood ``N2``.

The heuristic is the one of the RFC:

1. Exclude neighbours with willingness ``WILL_NEVER``.
2. Always select neighbours with willingness ``WILL_ALWAYS``.
3. Select neighbours that are the *only* provider of some 2-hop node.
4. While uncovered 2-hop nodes remain, select the most willing neighbour
   covering some of them, breaking ties by higher reachability, then higher
   degree D(y) (the size of its strict coverage), then lexicographic
   address (for determinism).
5. Prune redundant MPRs (nodes whose removal keeps full coverage), in
   order of (willingness, coverage size, address).

Every address set is an integer mask of the network's
:class:`~repro.netsim.network.AddressIndex`, as the 0/1 coverage vectors of
the MARL-mpr heuristic are: the addresses covered at least once and at
least twice are two masks, so the sole providers' addresses are ``once &
~twice``; a neighbour's reach is ``(coverage & uncovered).bit_count()``;
and the prune discards an MPR whose coverage is a subset of the OR of the
other MPRs' coverage.  Python integers are the bitsets: a numpy coverage
matrix measured slower at the 6–24 neighbours the shipped workloads reach,
because of its per-call overhead.

Nothing depends on bit order or on set order: the greedy step walks its
candidates in address order, the prune walks the MPRs in (willingness,
coverage size, address) order, and every loop over a set runs to its
end, so neither the result nor the work done follows the index or
``PYTHONHASHSEED``.
``tests/reference/mpr.py`` keeps the selection on Python sets that
recounts coverage for every MPR it prunes, as the oracle this one must
equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Set

from repro.olsr.constants import Willingness

_NEVER = Willingness.WILL_NEVER
_DEFAULT = Willingness.WILL_DEFAULT
_ALWAYS = Willingness.WILL_ALWAYS


@dataclass
class MprComputationResult:
    """Outcome of an MPR computation, with enough detail for audit logs."""

    mprs: Set[str] = field(default_factory=set)
    #: Mask of the strict 2-hop addresses no willing neighbour covers.
    uncovered: int = 0
    #: Willing symmetric neighbour -> mask of the strict 2-hop addresses it
    #: covers.
    coverage: Dict[str, int] = field(default_factory=dict)


def select_mprs(
    symmetric_neighbors: Set[str],
    coverage: Mapping[str, int],
    willingness: Mapping[str, Willingness],
    excluded: int,
) -> MprComputationResult:
    """Compute the MPR set.

    Parameters
    ----------
    symmetric_neighbors:
        The 1-hop symmetric neighbourhood ``N``.
    coverage:
        Mapping neighbour -> mask of the 2-hop addresses it claims to reach.
    willingness:
        Willingness per neighbour (``WILL_DEFAULT`` when absent).
    excluded:
        Mask of the addresses that are no strict 2-hop neighbours: the
        selecting node's own address and ``N``.
    """
    keep = ~excluded
    effective: Dict[str, int] = {}
    # The strict 2-hop set is built from *every* symmetric neighbour's
    # coverage, so that 2-hop nodes only reachable through WILL_NEVER
    # neighbours show up as uncovered; ``once`` and ``twice`` count the
    # willing ones only.
    two_hop = once = twice = 0
    for neighbor in symmetric_neighbors:
        covered = coverage.get(neighbor, 0) & keep
        two_hop |= covered
        if willingness.get(neighbor, _DEFAULT) != _NEVER:
            effective[neighbor] = covered
            twice |= once & covered
            once |= covered

    result = MprComputationResult(coverage=effective)

    if not two_hop:
        # Still honour WILL_ALWAYS neighbours (RFC step 1).
        result.mprs = {n for n in effective if willingness.get(n, _DEFAULT) == _ALWAYS}
        return result

    # Steps 1 and 3 (RFC numbering): WILL_ALWAYS neighbours, and the only
    # provider of each address covered once.
    sole = once & ~twice
    mprs: Set[str] = set()
    chosen = 0
    for neighbor, covered in effective.items():
        if covered & sole or willingness.get(neighbor, _DEFAULT) == _ALWAYS:
            mprs.add(neighbor)
            chosen |= covered
    uncovered = two_hop & ~chosen

    # Step 4: greedy selection by reachability.  Candidates are walked in
    # address order and only a larger key replaces the best, so the smaller
    # address wins ties.
    if uncovered:
        candidates = sorted([n for n in effective if n not in mprs])
        while uncovered:
            best = None
            best_key = None
            for neighbor in candidates:
                covered = effective[neighbor]
                reach = (covered & uncovered).bit_count()
                if reach:
                    key = (willingness.get(neighbor, _DEFAULT), reach, covered.bit_count())
                    if best is None or key > best_key:
                        best, best_key = neighbor, key
            if best is None:
                # Remaining 2-hop nodes are unreachable through any candidate.
                break
            mprs.add(best)
            candidates.remove(best)
            uncovered &= ~effective[best]
    result.uncovered = uncovered

    # Step 5: prune redundant MPRs (WILL_ALWAYS ones stay, and so do sole
    # providers, whose coverage no other MPR holds), in (willingness,
    # coverage size, address) order.
    if len(mprs) > 1:
        order = sorted([(willingness.get(n, _DEFAULT), effective[n].bit_count(), n)
                        for n in mprs])
        for will, _, neighbor in order:
            if will == _ALWAYS:
                continue
            others = 0
            for other in mprs:
                if other != neighbor:
                    others |= effective[other]
            if not effective[neighbor] & ~others:
                mprs.discard(neighbor)

    result.mprs = mprs
    return result


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
