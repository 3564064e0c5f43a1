"""Detector node: the full per-node stack of the paper.

A :class:`DetectorNode` bundles, for one network node:

* the :class:`repro.olsr.node.OlsrNode` router producing the audit log,
* the log analyzer and :class:`repro.core.detector.LocalDetector` (the node's
  log records only what a reader subscribed to, so an analyzer finds
  nothing until :meth:`repro.logs.analyzer.LogAnalyzer.subscribe` is called),
* the :class:`repro.trust.manager.TrustManager` (its direct trust), and
* a :class:`repro.core.investigation.CooperativeInvestigator`.

It also implements the *responder* side of the protocol
(:meth:`answer_link_query`), where a liar behaviour can be installed by the
attack modules to make the node provide falsified answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Set

from repro.core.decision import DetectionDecision
from repro.core.detector import InvestigationTrigger, LocalDetector
from repro.core.investigation import (
    CooperativeInvestigator,
    NetworkPathTransport,
    QueryTransport,
    RoundResult,
    common_two_hop_neighbors,
)
from repro.logs.analyzer import LogAnalyzer
from repro.logs.store import LogStore
from repro.olsr.constants import Willingness
from repro.olsr.node import OlsrNode
from repro.trust.manager import TrustManager, TrustParameters
from repro.seeding import stable_digest

AnswerMutator = Callable[[str, str, bool], Optional[bool]]


@dataclass
class DetectionConfig:
    """Parameters of the detection / decision pipeline."""

    gamma: float = 0.6
    confidence_level: float = 0.95
    use_trust_weighting: bool = True
    close_on_decision: bool = False
    query_loss_probability: float = 0.0


class DetectorNode:
    """One node running OLSR plus the trust-enabled misbehaviour detector."""

    def __init__(
        self,
        node_id: str,
        network,
        willingness: Willingness = Willingness.WILL_DEFAULT,
        trust_parameters: Optional[TrustParameters] = None,
        detection_config: Optional[DetectionConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.detection_config = detection_config or DetectionConfig()
        self.rng = random.Random(seed if seed is not None else stable_digest(node_id) & 0xFFFF)

        # The audit log records only what a reader subscribes to: the
        # analyzer (see LogAnalyzer.subscribe) or an invariant auditor.
        self.router = OlsrNode(node_id, network, willingness=willingness,
                               log_store=LogStore(node_id, categories=()),
                               seed=self.rng.randint(0, 2 ** 31))
        self.log = self.router.log
        self.analyzer = LogAnalyzer(self.log)
        self.detector = LocalDetector(
            self.analyzer,
            sole_provider_oracle=self._sole_provider_oracle,
        )
        self.trust = TrustManager(node_id, trust_parameters)
        self.investigator: Optional[CooperativeInvestigator] = None

        #: Liar hooks installed by attack modules: called with
        #: (suspect, requester, honest_answer) and may return a falsified one.
        self.answer_mutators: List[AnswerMutator] = []
        #: History of every decision taken, for metrics and reports.
        self.decision_history: List[DetectionDecision] = []

    # ----------------------------------------------------------------- wiring
    def start(self) -> None:
        """Start the node's OLSR router."""
        self.router.start()

    def bind_transport(self, transport: QueryTransport) -> None:
        """Install the query transport and build the investigator on top of it."""
        self.investigator = CooperativeInvestigator(
            owner=self.node_id,
            transport=transport,
            trust_manager=self.trust,
            gamma=self.detection_config.gamma,
            confidence_level=self.detection_config.confidence_level,
            use_trust_weighting=self.detection_config.use_trust_weighting,
            close_on_decision=self.detection_config.close_on_decision,
        )

    def bind_default_transport(self, peers: Mapping[str, "DetectorNode"]) -> None:
        """Build the network-aware transport that avoids the suspect.

        ``peers`` maps node id → :class:`DetectorNode` for every node able to
        answer link-verification queries.
        """
        transport = NetworkPathTransport(
            connectivity_oracle=self.network.medium.connectivity_matrix,
            responders=peers,
            loss_probability=self.detection_config.query_loss_probability,
            rng=self.rng,
            owner=self.node_id,
        )
        self.bind_transport(transport)

    # --------------------------------------------------------------- responder
    def answer_link_query(self, suspect: str, requester: str,
                          link_peer: Optional[str] = None) -> Optional[bool]:
        """Answer a link-verification request.

        ``link_peer=None`` (or the node's own id) asks "is ``suspect`` your
        symmetric neighbour?"; an explicit ``link_peer`` asks about the
        contested link ``suspect — link_peer``, which this node can verify
        only when ``link_peer`` is one of its symmetric neighbours (it then
        checks whether ``link_peer``'s recent HELLOs advertise the suspect
        back).  Well-behaving nodes answer truthfully from their OLSR state; a
        liar behaviour installed through ``answer_mutators`` may falsify the
        answer.
        """
        if link_peer is None or link_peer == self.node_id:
            honest: Optional[bool] = suspect in self.router.symmetric_neighbors()
        elif link_peer in self.router.symmetric_neighbors():
            # What did link_peer itself advertise lately (its HELLOs, as
            # recorded in the 2-hop set)?
            honest = self.router.peer_advertises(link_peer, suspect)
        else:
            honest = None  # no knowledge about that link
        answer: Optional[bool] = honest
        for mutator in self.answer_mutators:
            answer = mutator(suspect, requester, honest)
        return answer

    # --------------------------------------------------------------- detection
    def _sole_provider_oracle(self, suspect: str) -> Set[str]:
        """E3 check: nodes for which ``suspect`` is the only connectivity provider.

        They are the bits of ``suspect``'s coverage mask that no other
        neighbour's mask holds.
        """
        two_hop_set = self.router.two_hop_set
        others = 0
        for neighbor, covered in two_hop_set.coverage.items():
            if neighbor != suspect:
                others |= covered
        return set(two_hop_set.index.addresses(
            two_hop_set.coverage.get(suspect, 0) & ~others))

    def scan_logs(self) -> List[InvestigationTrigger]:
        """Run the local log analysis and return the new investigation triggers."""
        return self.detector.scan(now=self.router.now)

    def open_investigations_from_triggers(
        self, triggers: List[InvestigationTrigger]
    ) -> List[str]:
        """Open an investigation for every trigger; returns the suspects."""
        if self.investigator is None:
            raise RuntimeError("no transport bound: call bind_transport() first")
        suspects = []
        for trigger in triggers:
            responders = common_two_hop_neighbors(
                coverage_of=self.router.coverage_of,
                suspicious_mpr=trigger.suspect,
                replaced_mprs=trigger.replaced_mprs,
                exclude={self.node_id},
            )
            # The endpoints of the contested links are first-class witnesses.
            responders |= {
                peer for peer in trigger.contested_links
                if peer not in (self.node_id, trigger.suspect)
            }
            self.investigator.open_investigation(
                trigger.suspect,
                sorted(responders),
                contested_links=trigger.contested_links,
            )
            suspects.append(trigger.suspect)
        return suspects

    def run_investigation_round(self, suspect: str) -> RoundResult:
        """Run one round of the cooperative investigation about ``suspect``."""
        if self.investigator is None:
            raise RuntimeError("no transport bound: call bind_transport() first")
        result = self.investigator.run_round(suspect)
        self.decision_history.append(result.decision)
        return result

    def detection_round(self) -> List[RoundResult]:
        """One full detection cycle: scan logs, open/refresh investigations,
        run a round of every open investigation."""
        triggers = self.scan_logs()
        self.open_investigations_from_triggers(triggers)
        results: List[RoundResult] = []
        if self.investigator is None:
            return results
        for suspect in self.investigator.open_investigations():
            results.append(self.run_investigation_round(suspect))
        return results

    # ------------------------------------------------------------------ views
    def trust_table(self) -> Dict[str, float]:
        """Current direct trust of every known node."""
        return self.trust.as_dict()
