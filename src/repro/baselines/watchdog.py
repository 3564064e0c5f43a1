"""Watchdog / Pathrater baseline (Marti et al., MobiCom 2000).

Each node overhears its neighbours' transmissions to count the packets a
relay was supposed to forward but did not.  When the miss count exceeds a
threshold the relay is flagged as a misbehaving node.  The original's
Pathrater half, which down-rates routes through flagged relays, is not
reproduced: the simulated nodes have no data plane whose routes it could
rate, and the round adapter reads only the watchdog.

This is the classic trust-free baseline the paper's related-work section
cites ([13], [14]); it detects *drop* attacks but is blind to link spoofing,
which is exactly the comparison the ablation benches document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set


@dataclass
class WatchdogRecord:
    """Forwarding bookkeeping about one monitored relay."""

    relay: str
    expected: int = 0
    forwarded: int = 0
    missed: int = 0

    @property
    def miss_ratio(self) -> float:
        """Fraction of expected forwards that never happened."""
        if self.expected == 0:
            return 0.0
        return self.missed / self.expected


#: A relay is flagged once it missed at least this many forwards ...
MISS_THRESHOLD = 5
#: ... and at least this fraction of the forwards expected of it.
MISS_RATIO_THRESHOLD = 0.5


class Watchdog:
    """Per-node watchdog counting unforwarded packets."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._records: Dict[str, WatchdogRecord] = {}

    def record_of(self, relay: str) -> WatchdogRecord:
        """Record for ``relay`` (created empty when absent)."""
        record = self._records.get(relay)
        if record is None:
            record = WatchdogRecord(relay=relay)
            self._records[relay] = record
        return record

    def expect_forward(self, relay: str) -> None:
        """A packet was handed to ``relay``; we expect to overhear its retransmission."""
        self.record_of(relay).expected += 1

    def observe_forward(self, relay: str) -> None:
        """The retransmission by ``relay`` was overheard."""
        self.record_of(relay).forwarded += 1

    def observe_miss(self, relay: str) -> None:
        """The retransmission was not overheard before the timeout."""
        self.record_of(relay).missed += 1

    def misbehaving_nodes(self) -> Set[str]:
        """Relays flagged by the watchdog."""
        flagged = set()
        for relay, record in self._records.items():
            if record.missed >= MISS_THRESHOLD and record.miss_ratio >= MISS_RATIO_THRESHOLD:
                flagged.add(relay)
        return flagged

    def is_misbehaving(self, relay: str) -> bool:
        """Whether ``relay`` is currently flagged."""
        return relay in self.misbehaving_nodes()


@dataclass
class WatchdogPathrater:
    """The watchdog baseline behind the detector's round interface."""

    owner: str
    watchdog: Watchdog = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.watchdog is None:
            self.watchdog = Watchdog(self.owner)

    def process_round(self, suspect: str, answers: Mapping[str, Optional[bool]]) -> float:
        """Round-based adapter matching the paper detector's interface.

        A watchdog has no notion of link-verification testimony; the closest
        translation is to treat every received answer as one overheard
        forwarding opportunity of the suspect: a denial means the promised
        behaviour did not materialise (a miss), a confirmation counts as an
        observed forward, and a missing answer is no observation at all.
        Returns the suspect's score in ``[-1, 1]`` (``+1`` = every
        opportunity forwarded, ``-1`` = every opportunity missed).
        """
        for _responder, answer in sorted(answers.items()):
            if answer is None:
                continue
            self.watchdog.expect_forward(suspect)
            if answer:
                self.watchdog.observe_forward(suspect)
            else:
                self.watchdog.observe_miss(suspect)
        return self.score_of(suspect)

    def score_of(self, suspect: str) -> float:
        """Miss-ratio score of ``suspect`` mapped linearly onto ``[-1, 1]``."""
        return 1.0 - 2.0 * self.watchdog.record_of(suspect).miss_ratio

    def classify(self, suspect: str) -> str:
        """"intruder" when the watchdog flags ``suspect``, else "well-behaving"."""
        if self.watchdog.is_misbehaving(suspect):
            return "intruder"
        return "well-behaving"
