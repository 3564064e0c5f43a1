"""Cooperative investigation (Algorithm 1 of the paper).

When a node observes a triggering evidence (E1 or E2) about one of its MPRs,
it interrogates the 2-hop neighbours that are covered by both the replaced and
the replacing MPR: each of them is asked to *verify the link* it allegedly
shares with the suspect.  Requests must not travel through the suspect (or a
colluding intruder); when no alternative path exists the responder cannot be
reached and the answer is recorded as missing (the E3 situation).

The answers (+1 confirm / −1 deny / 0 missing) are aggregated with the trust
system (Eq. 8) and fed to the decision rule (Eq. 10); the outcome updates the
direct trust (Eq. 5) of the suspect and of every responder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional, Protocol,
                    Sequence, Set, Tuple)

from repro.core.decision import (
    ANSWER_CONFIRM,
    ANSWER_DENY,
    ANSWER_MISSING,
    DecisionOutcome,
    DetectionDecision,
    evaluate_investigation,
)
from repro.seeding import stable_seed
from repro.trust.evidence import EvidenceKind, TrustEvidence
from repro.trust.manager import TrustManager


def _transport_rng(kind: str, owner: str) -> random.Random:
    """Default per-owner loss RNG for a query transport.

    Seeding every transport with a shared constant (the old
    ``random.Random(0)`` default) made all nodes draw the *identical* loss
    sequence, correlating query losses across the whole network; deriving the
    seed from the owning node's id keeps the default deterministic while
    decorrelating the instances (same scheme as the experiment engine's
    stable per-cell seeds).
    """
    return random.Random(stable_seed(0, f"{kind}:{owner}"))


class QueryTransport(Protocol):
    """Delivery mechanism for link-verification requests."""

    def verify_link(
        self, requester: str, responder: str, suspect: str,
        link_peer: Optional[str] = None,
    ) -> Optional[bool]:
        """Ask ``responder`` to verify a link advertised by ``suspect``.

        With ``link_peer=None`` the question is "is ``suspect`` one of *your*
        symmetric neighbours?" (the Algorithm 1 per-own-link check).  With an
        explicit ``link_peer`` the question is about the specific contested
        link ``suspect — link_peer`` (the E4/E5 verification): the responder
        answers from its knowledge of ``link_peer``'s advertisements.

        Returns ``True`` when the responder confirms the link, ``False`` when
        it denies it, and ``None`` when it has no knowledge or no answer
        arrives before the timeout (unreachable responder, lost request/reply,
        crashed node…).
        """
        ...


class OracleTransport:
    """Transport that queries responder objects directly.

    Used by the round-based experiment driver: each responder object must
    expose ``answer_link_query(suspect, requester, link_peer) ->
    Optional[bool]``.  An optional Bernoulli loss probability models lost
    requests or replies.
    """

    def __init__(
        self,
        responders: Mapping[str, object],
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        owner: str = "",
    ) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        self._responders = dict(responders)
        self.loss_probability = loss_probability
        self.rng = rng or _transport_rng("oracle-transport", owner)

    def verify_link(self, requester: str, responder: str, suspect: str,
                    link_peer: Optional[str] = None) -> Optional[bool]:
        target = self._responders.get(responder)
        if target is None:
            return None
        if self.loss_probability and self.rng.random() < self.loss_probability:
            return None
        return target.answer_link_query(suspect, requester, link_peer)


class CallableTransport:
    """Transport backed by a plain callable (handy for tests).

    The callable receives ``(requester, responder, suspect, link_peer)``.
    """

    def __init__(self, func: Callable[..., Optional[bool]]) -> None:
        self._func = func

    def verify_link(self, requester: str, responder: str, suspect: str,
                    link_peer: Optional[str] = None) -> Optional[bool]:
        return self._func(requester, responder, suspect, link_peer)


@dataclass
class RoundResult:
    """Answers and decision of one investigation round."""

    round_index: int
    suspect: str
    answers: Dict[str, float]
    decision: DetectionDecision
    responders_reached: List[str] = field(default_factory=list)
    responders_unreached: List[str] = field(default_factory=list)


@dataclass
class InvestigationState:
    """Per-suspect state across rounds (Algorithm 1 state).

    Only the last round is kept: a caller that needs every round keeps the
    :class:`RoundResult` each :meth:`CooperativeInvestigator.run_round`
    returns.
    """

    suspect: str
    responders: List[str]
    #: Contested links (suspect — peer) under verification.  When empty the
    #: investigation falls back to the per-own-link Algorithm 1 check.
    contested_links: List[str] = field(default_factory=list)
    #: Number of rounds already executed.
    round_count: int = 0
    #: The latest round; :meth:`CooperativeInvestigator.close` reads its outcome.
    last_round: Optional[RoundResult] = None
    unverified: bool = False
    closed: bool = False
    final_outcome: Optional[DecisionOutcome] = None


class CooperativeInvestigator:
    """Drives Algorithm 1 for a single investigating node ``owner``.

    Parameters
    ----------
    owner:
        Identifier of the investigating node ``A``.
    transport:
        :class:`QueryTransport` used to reach the responders.
    trust_manager:
        Direct-trust store of the investigator (Eq. 5 state).
    gamma / confidence_level:
        Decision-rule parameters (Eq. 10 / Eq. 9).
    use_trust_weighting:
        Set to ``False`` for the unweighted-vote ablation.
    close_on_decision:
        Terminate the investigation as soon as the decision rule returns a
        conclusive outcome (the paper notes an investigation "is rather
        terminated at any round by confirming/denying the existence of a link
        spoofing when the investigation result exceeds" a threshold).
    """

    def __init__(
        self,
        owner: str,
        transport: QueryTransport,
        trust_manager: TrustManager,
        gamma: float = 0.6,
        confidence_level: float = 0.95,
        use_trust_weighting: bool = True,
        close_on_decision: bool = False,
    ) -> None:
        self.owner = owner
        self.transport = transport
        self.trust = trust_manager
        self.gamma = gamma
        self.confidence_level = confidence_level
        self.use_trust_weighting = use_trust_weighting
        self.close_on_decision = close_on_decision
        self._investigations: Dict[str, InvestigationState] = {}

    # --------------------------------------------------------------- control
    def open_investigation(
        self,
        suspect: str,
        responders: Sequence[str],
        contested_links: Optional[Sequence[str]] = None,
    ) -> InvestigationState:
        """Open (or reuse) an investigation about ``suspect``.

        ``responders`` are the common 2-hop neighbours computed by
        :func:`common_two_hop_neighbors` — the nodes whose links with the
        suspect must be verified.  ``contested_links`` optionally narrows the
        verification to specific advertised links (the suspiciously *added*
        neighbours); every responder is then asked about those links only.
        """
        state = self._investigations.get(suspect)
        if state is None or state.closed:
            state = InvestigationState(suspect=suspect, responders=sorted(set(responders)))
            self._investigations[suspect] = state
        else:
            merged = set(state.responders) | set(responders)
            state.responders = sorted(merged)
        if contested_links:
            merged_links = set(state.contested_links) | set(contested_links)
            merged_links.discard(suspect)
            state.contested_links = sorted(merged_links)
        if not state.responders:
            state.unverified = True
        return state

    def state_of(self, suspect: str) -> Optional[InvestigationState]:
        """Current investigation state about ``suspect`` (None when never opened)."""
        return self._investigations.get(suspect)

    def open_investigations(self) -> List[str]:
        """Suspects with an investigation that is not closed yet."""
        return sorted(s for s, st in self._investigations.items() if not st.closed)

    # ----------------------------------------------------------------- rounds
    def run_round(self, suspect: str, now: float = 0.0) -> RoundResult:
        """Execute one investigation round about ``suspect``.

        Every responder is queried through the transport; the answers are
        aggregated (Eq. 8), the decision rule applied (Eq. 10) and the trust of
        the suspect and of every responder updated from the outcome.
        """
        state = self._investigations.get(suspect)
        if state is None:
            raise KeyError(f"no open investigation about {suspect!r}")
        if state.closed:
            raise RuntimeError(f"investigation about {suspect!r} is already closed")

        answers: Dict[str, float] = {}
        reached: List[str] = []
        unreached: List[str] = []
        for responder in state.responders:
            reply = self._query_responder(state, responder, suspect)
            if reply is None:
                answers[responder] = ANSWER_MISSING
                unreached.append(responder)
            elif reply:
                answers[responder] = ANSWER_CONFIRM
                reached.append(responder)
            else:
                answers[responder] = ANSWER_DENY
                reached.append(responder)

        trust_view = {responder: self.trust.trust_of(responder) for responder in answers}
        decision = evaluate_investigation(
            suspect=suspect,
            answers=answers,
            trust=trust_view,
            gamma=self.gamma,
            confidence_level=self.confidence_level,
            use_trust_weighting=self.use_trust_weighting,
        )
        result = RoundResult(
            round_index=state.round_count,
            suspect=suspect,
            answers=answers,
            decision=decision,
            responders_reached=reached,
            responders_unreached=unreached,
        )
        state.round_count += 1
        state.last_round = result
        self._update_trust_from_round(state, result, now)
        if not reached:
            state.unverified = True
        if self.close_on_decision and decision.is_final:
            state.closed = True
            state.final_outcome = decision.outcome
        return result

    def _query_responder(self, state: InvestigationState, responder: str,
                         suspect: str) -> Optional[bool]:
        """Query one responder, honouring the contested-link mode.

        Without contested links the responder verifies its *own* link with the
        suspect.  With contested links it is asked about each of them; per
        Expression 4 a single witnessed falsification (E4/E5) is damning, so a
        single denial yields an overall deny, a confirmation without any
        denial yields confirm, and no knowledge at all yields no answer.
        """
        if not state.contested_links:
            return self.transport.verify_link(self.owner, responder, suspect)
        saw_confirm = False
        saw_answer = False
        for link_peer in state.contested_links:
            reply = self.transport.verify_link(self.owner, responder, suspect,
                                               link_peer=link_peer)
            if reply is None:
                continue
            saw_answer = True
            if not reply:
                return False
            saw_confirm = True
        if not saw_answer:
            return None
        return saw_confirm

    def close(self, suspect: str) -> Optional[DecisionOutcome]:
        """Force-close an investigation and return its last outcome."""
        state = self._investigations.get(suspect)
        if state is None:
            return None
        state.closed = True
        if state.last_round is not None:
            state.final_outcome = state.last_round.decision.outcome
        return state.final_outcome

    # -------------------------------------------------------------- internals
    def _update_trust_from_round(self, state: InvestigationState,
                                 result: RoundResult, now: float) -> None:
        detect = result.decision.detect_value
        # Evidences grouped by subject; the order they are added is the order
        # their α_j·e_j contributions are summed.
        evidences: Dict[str, List[TrustEvidence]] = {}

        # Evidence about the responders: an answer consistent with the round's
        # conclusion is beneficial, a contradicting answer is harmful
        # (Properties 1 and 2).  The conclusion used as reference is the
        # majority opinion of the received answers: under the paper's threat
        # model the colluders are a minority, so the majority identifies the
        # incorrect answers regardless of how the initial trust was drawn.
        received = [a for a in result.answers.values() if a != ANSWER_MISSING]
        majority = sum(received) / len(received) if received else 0.0
        if abs(majority) > 1e-9:
            reference_sign = 1.0 if majority > 0 else -1.0
            for responder, answer in result.answers.items():
                if answer == ANSWER_MISSING:
                    continue
                agreed = (answer * reference_sign) > 0
                kind = (
                    EvidenceKind.INVESTIGATION_AGREEMENT
                    if agreed
                    else EvidenceKind.INVESTIGATION_DISAGREEMENT
                )
                value = 1.0 if agreed else -1.0
                evidences.setdefault(responder, []).append(
                    TrustEvidence(
                        observer=self.owner,
                        subject=responder,
                        kind=kind,
                        value=value,
                        timestamp=now,
                        firsthand=True,
                    )
                )

        # Evidence about the suspect itself: the aggregate sign *is* the
        # second-hand evidence of spoofing (negative) or correct behaviour
        # (positive).
        if abs(detect) > 1e-9:
            kind = EvidenceKind.LINK_SPOOFING if detect < 0 else EvidenceKind.CONSISTENT_ADVERTISEMENT
            evidences.setdefault(state.suspect, []).append(
                TrustEvidence(
                    observer=self.owner,
                    subject=state.suspect,
                    kind=kind,
                    value=max(-1.0, min(1.0, detect)),
                    timestamp=now,
                    firsthand=False,
                    imminent=detect < -0.5,
                )
            )

        self.trust.update_all(evidences)


# ---------------------------------------------------------------------------
# Algorithm 1 helpers
# ---------------------------------------------------------------------------
def common_two_hop_neighbors(
    coverage_of: Callable[[str], Set[str]],
    suspicious_mpr: str,
    replaced_mprs: Sequence[str],
    exclude: Optional[Set[str]] = None,
) -> Set[str]:
    """Line 4 of Algorithm 1: 2-hop neighbours covered by both the suspicious
    (replacing) MPR and at least one of the replaced MPRs.

    When there is no replaced MPR (an E2-triggered investigation), the
    responders are simply the nodes the suspicious MPR claims to cover.
    ``exclude`` removes the investigator itself and any already-suspected
    colluder from the responder set.
    """
    exclude = exclude or set()
    suspect_coverage = set(coverage_of(suspicious_mpr))
    if replaced_mprs:
        replaced_coverage: Set[str] = set()
        for replaced in replaced_mprs:
            replaced_coverage |= set(coverage_of(replaced))
        common = suspect_coverage & replaced_coverage
        if not common:
            common = suspect_coverage
    else:
        common = suspect_coverage
    return {n for n in common if n not in exclude and n != suspicious_mpr}


def reachable_avoiding(
    connectivity: Mapping[str, Sequence[str]],
    source: str,
    avoid: FrozenSet[str],
) -> Set[str]:
    """Every node a request from ``source`` can reach without transiting ``avoid``.

    A node is reached when some path from ``source`` ends at it and none of
    the nodes in between belongs to ``avoid``.  ``source`` itself is always
    reached, and a member of ``avoid`` is reached as an endpoint (a query
    addressed to the suspect or a colluder) but never relayed through.  A
    node left out is unreachable without crossing a suspect: the E3
    dead-end of the paper.
    """
    reached = {source}
    frontier = [source]
    while frontier:
        relays = []
        for node in frontier:
            for neighbor in connectivity.get(node, ()):
                if neighbor in reached:
                    continue
                reached.add(neighbor)
                if neighbor not in avoid:
                    relays.append(neighbor)
        frontier = relays
    return reached


class NetworkPathTransport:
    """Transport that honours the "avoid the suspect" routing rule.

    The request (and its answer) must not go through the suspicious MPR or any
    node in ``colluders``.  Reachability is evaluated on the supplied
    connectivity oracle; when no alternative path exists the query fails
    (``None``), reproducing the E3 dead-end of the paper.  Each successful
    query can still be lost with ``loss_probability`` (unreliable channel).

    Reachability does not depend on the responder or the contested link, so
    one :func:`reachable_avoiding` set per (connectivity mapping, requester,
    avoided nodes) answers every query of an investigation round.  The
    oracle's contract: return a new mapping object whenever connectivity
    changes (as :meth:`repro.netsim.medium.WirelessMedium.connectivity_matrix`
    does), and never mutate one it has returned.
    """

    def __init__(
        self,
        connectivity_oracle: Callable[[], Mapping[str, Sequence[str]]],
        responders: Mapping[str, object],
        colluders: Optional[Set[str]] = None,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        owner: str = "",
    ) -> None:
        self._connectivity_oracle = connectivity_oracle
        self._responders = dict(responders)
        self.colluders = set(colluders or set())
        self.loss_probability = loss_probability
        self.rng = rng or _transport_rng("network-path-transport", owner)
        # The last reachable set and what it was computed from.  Holding the
        # mapping keeps its identity from being recycled by a new object.
        self._reach_connectivity: Optional[Mapping[str, Sequence[str]]] = None
        self._reach_inputs: Optional[Tuple[str, FrozenSet[str]]] = None
        self._reachable: Set[str] = set()

    def verify_link(self, requester: str, responder: str, suspect: str,
                    link_peer: Optional[str] = None) -> Optional[bool]:
        connectivity = self._connectivity_oracle()
        avoid = frozenset(self.colluders | {suspect})
        inputs = (requester, avoid)
        if connectivity is not self._reach_connectivity or inputs != self._reach_inputs:
            self._reachable = reachable_avoiding(connectivity, requester, avoid)
            self._reach_connectivity, self._reach_inputs = connectivity, inputs
        if responder not in self._reachable:
            return None
        if self.loss_probability and self.rng.random() < self.loss_probability:
            return None
        target = self._responders.get(responder)
        if target is None:
            return None
        return target.answer_link_query(suspect, requester, link_peer)
