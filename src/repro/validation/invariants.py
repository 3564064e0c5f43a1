"""Structural invariant checkers over simulated MANET runs.

An invariant is a property every correct run must satisfy regardless of the
scenario: the medium never delivers a frame beyond the sender's radio range,
every node's MPR set covers its strict 2-hop neighbourhood (RFC 3626
§8.3.1), trust values stay inside their declared bounds, and the duplicate
table never lets a node relay the same flooded message twice.  The checkers
run *after* a simulation against its live state — they are read-only — and
return :class:`InvariantViolation` records instead of raising, so a fuzzing
campaign can collect every violation of a corpus.

Usage::

    auditor = ScenarioAuditor(scenario)   # BEFORE running the simulation
    ...run...
    violations = auditor.check_all()

:class:`ScenarioAuditor` installs the medium's delivery-trace recorder (the
range invariant audits the positions each delivery decision actually used),
subscribes every node's log to the ``FORWARD`` records the duplicate check
reads, and bundles every registered checker; the individual ``check_*``
functions are importable on their own and shared with the golden protocol
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.logs.records import LogCategory
from repro.netsim.trace import TraceRecorder
from repro.olsr.mpr import mpr_coverage_complete
from repro.trust.manager import TrustManager

#: Relative slack of the delivery-range check: pure float tolerance, not a
#: physical allowance — the medium compared the exact same euclidean
#: distance against the exact same range.
RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation of a structural invariant."""

    invariant: str
    node: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.node}: {self.detail}"


# ------------------------------------------------------------------ checkers
def check_delivery_range(scenario, recorder: TraceRecorder,
                         limit: Optional[int] = None) -> List[InvariantViolation]:
    """No frame is delivered beyond the sender's transmit range.

    ``recorder`` must have been installed as the medium's delivery auditor
    *before* the run (see :class:`ScenarioAuditor`); each ``FRAME_DELIVERED``
    event carries the sender/receiver positions and the range the medium's
    own in-range decision used.
    """
    violations: List[InvariantViolation] = []
    events = recorder.by_category("medium")
    if limit is not None:
        events = events[:limit]
    for event in events:
        tx_range = event.data.get("tx_range")
        if tx_range is None:
            continue
        sx, sy = event.data["sender_pos"]
        rx, ry = event.data["receiver_pos"]
        dist = math.hypot(sx - rx, sy - ry)
        if dist > tx_range * (1.0 + RANGE_SLACK):
            violations.append(InvariantViolation(
                invariant="delivery-range",
                node=event.node,
                detail=(f"frame from {event.data.get('source')} delivered at "
                        f"distance {dist:.3f} > range {tx_range:.3f} "
                        f"(t={event.time:.3f})"),
            ))
    return violations


def check_mpr_coverage(scenario) -> List[InvariantViolation]:
    """MPR selection covers the strict 2-hop neighbourhood (RFC 3626 §8.3.1).

    The checker re-runs :func:`~repro.olsr.mpr.select_mprs` on each node's
    *live* information repositories — exactly what the node itself would
    compute next — and asserts the coverage property of the result: every
    strict 2-hop address reachable through some willing symmetric neighbour
    must be covered by the selected MPR set (addresses the selection itself
    reports as provider-less are exempt; they are legitimately unreachable).

    The node's *stored* ``mpr_set`` is deliberately not compared: links
    expire passively between housekeeping runs, so a snapshot taken inside
    that window is stale by design (an OLSR liveness property bounded by
    the HELLO interval), and flagging it would make the invariant racy on
    every lossy or mobile scenario.  Selection correctness, which E1
    depends on, is what this invariant pins down — on every topology the
    fuzzer can manufacture.
    """
    from repro.olsr.mpr import select_mprs

    violations: List[InvariantViolation] = []
    for node_id, node in sorted(scenario.nodes.items()):
        olsr = getattr(node, "router", node)
        symmetric = olsr.symmetric_neighbors()
        willingness = {n.neighbor_address: n.willingness for n in olsr.neighbor_set}
        coverage: Dict[str, Set[str]] = olsr.two_hop_set.coverage_map()
        result = select_mprs(
            symmetric_neighbors=symmetric,
            coverage=coverage,
            willingness=willingness,
            local_address=node_id,
        )
        strict_two_hop: Set[str] = set()
        for neighbor in symmetric:
            strict_two_hop |= {
                address for address in coverage.get(neighbor, set())
                if address not in symmetric and address not in (node_id, neighbor)
            }
        required = strict_two_hop - result.uncovered
        if mpr_coverage_complete(result.mprs, result.coverage, required):
            continue
        covered: Set[str] = set()
        for mpr in result.mprs:
            covered |= result.coverage.get(mpr, set())
        missing = sorted(required - covered)
        violations.append(InvariantViolation(
            invariant="mpr-coverage",
            node=node_id,
            detail=(f"selected MPR set {sorted(result.mprs)} leaves 2-hop "
                    f"neighbours {missing} uncovered"),
        ))
    return violations


def check_trust_bounds(scenario) -> List[InvariantViolation]:
    """Trust values stay inside their declared bounds.

    The trust system's update rule (Eq. 5) clamps into
    ``[minimum, maximum]``; any value outside — or outside the paper's
    global [0, 1] scale — means an update path skipped the clamp.
    """
    violations: List[InvariantViolation] = []
    for node_id, node in sorted(scenario.nodes.items()):
        trust: Optional[TrustManager] = getattr(node, "trust", None)
        if trust is not None:
            params = trust.parameters
            low = max(0.0, params.minimum)
            high = min(1.0, params.maximum)
            for subject, value in sorted(trust.as_dict().items()):
                if not (low - 1e-12 <= value <= high + 1e-12) or math.isnan(value):
                    violations.append(InvariantViolation(
                        invariant="trust-bounds",
                        node=node_id,
                        detail=f"trust of {subject} is {value!r}, outside [{low}, {high}]",
                    ))
    return violations


def check_duplicate_suppression(scenario) -> List[InvariantViolation]:
    """No node relays the same flooded message twice.

    RFC 3626 §3.4: the duplicate table must stop a message already
    forwarded from being retransmitted when another copy arrives over a
    different path.  The audit log records every relay with the message's
    (originator, sequence number) pair, which must therefore be unique per
    node.  The logs hold ``FORWARD`` records only when a reader subscribed
    to them before the run, as :class:`ScenarioAuditor` does.
    """
    violations: List[InvariantViolation] = []
    for node_id, node in sorted(scenario.nodes.items()):
        seen: Set[Tuple[str, str]] = set()
        for record in node.log.by_category(LogCategory.FORWARD):
            if record.event != "RELAYED":
                continue
            origin, seq = record.get("origin"), record.get("seq")
            key = (origin, seq)
            if key in seen:
                violations.append(InvariantViolation(
                    invariant="duplicate-suppression",
                    node=node_id,
                    detail=f"message ({origin}, seq {seq}) relayed more than once",
                ))
            seen.add(key)
    return violations


#: Checkers that need only the finished scenario.  The delivery-range check
#: additionally needs the auditor's recorder, so it is wired separately in
#: :class:`ScenarioAuditor`.
ALL_INVARIANTS: Dict[str, Callable[[object], List[InvariantViolation]]] = {
    "mpr-coverage": check_mpr_coverage,
    "trust-bounds": check_trust_bounds,
    "duplicate-suppression": check_duplicate_suppression,
}


class ScenarioAuditor:
    """Attach every invariant to one built scenario.

    Construct the auditor *before* running the simulation: it installs the
    medium's delivery-trace recorder so the range invariant can audit every
    delivery, and subscribes every node's audit log to the ``FORWARD``
    records the duplicate-suppression invariant reads.
    ``max_trace_events`` bounds the recorder's memory; when the bound trims
    the trace only the retained deliveries are checked.
    """

    #: Reader name of the auditor's log subscription.
    READER = "invariants"

    def __init__(self, scenario, max_trace_events: int = 200_000) -> None:
        self.scenario = scenario
        self.recorder = TraceRecorder(max_events=max_trace_events)
        scenario.network.medium.trace_recorder = self.recorder
        for node in scenario.nodes.values():
            node.log.subscribe(self.READER, (LogCategory.FORWARD,))

    def check_all(self) -> List[InvariantViolation]:
        """Run every invariant; violations sorted for stable reports."""
        violations = check_delivery_range(self.scenario, self.recorder)
        for checker in ALL_INVARIANTS.values():
            violations.extend(checker(self.scenario))
        return sorted(violations, key=lambda v: (v.invariant, v.node, v.detail))
