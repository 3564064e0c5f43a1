"""Local (log-based) detector.

The local detector is the per-node front end of the IDS: it periodically
analyses the node's own audit logs (through
:class:`repro.logs.analyzer.LogAnalyzer`), derives the detection evidences
E1–E3 from the extracted events and decides whether a cooperative
investigation must be launched and against whom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.core.evidence import (
    DetectionEvidence,
    SuspicionLevel,
    e1,
    e2,
    e3,
)
from repro.logs.analyzer import DetectionEventType, LogAnalyzer


@dataclass
class InvestigationTrigger:
    """A request to open a cooperative investigation about ``suspect``."""

    suspect: str
    observer: str
    time: float
    evidences: List[DetectionEvidence] = field(default_factory=list)
    replaced_mprs: List[str] = field(default_factory=list)
    #: Specific advertised links considered suspicious (the newly *added*
    #: neighbours of an MPR's advertisement); used to focus the verification.
    contested_links: List[str] = field(default_factory=list)

    @property
    def strongest_level(self) -> SuspicionLevel:
        """Highest criticality among the collected evidences."""
        if not self.evidences:
            return SuspicionLevel.INFORMATIONAL
        return max((evidence.level for evidence in self.evidences), key=int)


class LocalDetector:
    """Turns audit-log events into investigation triggers.

    It keeps no event or evidence between scans beyond the analyzer's own
    state: each scan's evidences travel in the triggers it returns.

    Parameters
    ----------
    analyzer:
        The log analyzer bound to the node's own :class:`LogStore`.
    sole_provider_oracle:
        Optional callable ``suspect -> set of nodes for which the suspect is
        the only connectivity provider`` — the E3 check.  The OLSR node
        provides it from its 2-hop set; the lightweight experiment harness
        can omit it.
    min_trigger_level:
        Events below this criticality never start an investigation (the
        paper's "minimise the number of investigations" goal).
    mpr_advertisement_change_is_e2:
        Treat a change in the links advertised by a node that is *currently
        one of our MPRs* as an E2-style misbehaviour hint.  This covers the
        common case where the intruder is already an MPR when it starts
        spoofing, so no MPR replacement (E1) is ever observed.
    """

    def __init__(
        self,
        analyzer: LogAnalyzer,
        sole_provider_oracle: Optional[Callable[[str], Set[str]]] = None,
        min_trigger_level: SuspicionLevel = SuspicionLevel.SUSPICIOUS,
        mpr_advertisement_change_is_e2: bool = True,
    ) -> None:
        self.analyzer = analyzer
        self.node_id = analyzer.node_id
        self.sole_provider_oracle = sole_provider_oracle
        self.min_trigger_level = min_trigger_level
        self.mpr_advertisement_change_is_e2 = mpr_advertisement_change_is_e2

    # ------------------------------------------------------------------ scan
    def scan(self, now: Optional[float] = None) -> List[InvestigationTrigger]:
        """Analyse the new log records and return the investigation triggers."""
        events = self.analyzer.analyze()
        triggers: Dict[str, InvestigationTrigger] = {}
        for event in events:
            time = now if now is not None else event.time
            if event.event_type == DetectionEventType.MPR_REPLACED:
                replacing_candidates = [s for s in event.subject.split(",") if s]
                replaced = event.details.get("replaced", "")
                for suspect in replacing_candidates:
                    trigger = triggers.setdefault(
                        suspect,
                        InvestigationTrigger(suspect=suspect, observer=self.node_id, time=time),
                    )
                    trigger.evidences.append(e1(self.node_id, suspect, time, replaced=replaced))
                    if replaced and replaced not in trigger.replaced_mprs:
                        trigger.replaced_mprs.append(replaced)
            elif event.event_type == DetectionEventType.MPR_MISBEHAVIOR:
                suspect = event.subject
                trigger = triggers.setdefault(
                    suspect,
                    InvestigationTrigger(suspect=suspect, observer=self.node_id, time=time),
                )
                trigger.evidences.append(e2(self.node_id, suspect, time,
                                            reason=event.details.get("reason", "misbehavior")))
            elif (
                event.event_type == DetectionEventType.ADVERTISEMENT_CHANGED
                and self.mpr_advertisement_change_is_e2
                and event.subject in self.analyzer.current_mprs
                and event.details.get("added")
            ):
                suspect = event.subject
                trigger = triggers.setdefault(
                    suspect,
                    InvestigationTrigger(suspect=suspect, observer=self.node_id, time=time),
                )
                trigger.evidences.append(e2(self.node_id, suspect, time,
                                            reason="mpr_advertisement_change"))
                added = [a for a in event.details.get("added", "").split(",") if a]
                for address in added:
                    if address in (self.node_id, suspect):
                        continue
                    if address not in trigger.contested_links:
                        trigger.contested_links.append(address)

        # Enrich triggers with the optional E3 evidence.
        for suspect, trigger in triggers.items():
            self._attach_e3(trigger)

        return [
            trigger
            for trigger in triggers.values()
            if int(trigger.strongest_level) >= int(self.min_trigger_level)
        ]

    def _attach_e3(self, trigger: InvestigationTrigger) -> None:
        if self.sole_provider_oracle is None:
            return
        isolated = self.sole_provider_oracle(trigger.suspect)
        for node in sorted(isolated):
            trigger.evidences.append(
                e3(self.node_id, trigger.suspect, trigger.time, isolated_node=node))
