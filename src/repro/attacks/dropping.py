"""Drop attacks: blackhole and grayhole (Section II-B).

A drop attack is characterised by a node that, instead of relaying messages
it should forward as an MPR, silently discards them.  Dropping everything is
a *blackhole*; selective or probabilistic dropping is a *grayhole*.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Set

from repro.attacks.base import Attack, AttackSchedule, PeriodicSchedule, _underlying_router
from repro.olsr.constants import MessageType
from repro.olsr.messages import OlsrMessage
from repro.seeding import stable_seed


class BlackholeAttack(Attack):
    """Drop every message the compromised node should have relayed."""

    name = "blackhole"

    def __init__(self, schedule: Optional[AttackSchedule] = None) -> None:
        super().__init__(schedule)
        self.dropped_count = 0

    def install(self, node) -> None:
        olsr = _underlying_router(node)
        olsr.forward_filters.append(self._filter)
        self.mark_installed(olsr.node_id)

    def _filter(self, message: OlsrMessage, last_hop: str, node) -> bool:
        if not self.is_active(node.now):
            return True
        self.dropped_count += 1
        return False


class GrayholeAttack(Attack):
    """Selective dropping.

    Messages are dropped with probability ``drop_probability``; additionally
    the drop can be restricted to specific message types and/or originators
    (e.g. drop only the TC messages of a victim, hiding it from the rest of
    the network).
    """

    name = "grayhole"

    def __init__(
        self,
        drop_probability: float = 0.5,
        message_types: Optional[Iterable[MessageType]] = None,
        victim_originators: Optional[Iterable[str]] = None,
        schedule: Optional[AttackSchedule] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(schedule)
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self.drop_probability = drop_probability
        self.message_types: Optional[Set[MessageType]] = (
            set(message_types) if message_types is not None else None
        )
        self.victim_originators: Optional[Set[str]] = (
            set(victim_originators) if victim_originators is not None else None
        )
        # When no rng is supplied, a per-node stream is derived at install()
        # time (stable_seed of the node id, as OracleTransport does per
        # owner); two default-constructed grayholes on different nodes used
        # to share random.Random(0) and drop the exact same message indices.
        # The pre-install fallback keeps uninstalled standalone use working.
        self._rng_supplied = rng is not None
        self.rng = rng if rng is not None else random.Random(0)
        self.dropped_count = 0
        self.relayed_count = 0

    def install(self, node) -> None:
        olsr = _underlying_router(node)
        if not self._rng_supplied and not self.installed_on:
            self.rng = random.Random(
                stable_seed(0, f"attack:{self.name}:{olsr.node_id}"))
        olsr.forward_filters.append(self._filter)
        self.mark_installed(olsr.node_id)

    def _filter(self, message: OlsrMessage, last_hop: str, node) -> bool:
        if not self.is_active(node.now):
            return True
        if self.message_types is not None and message.message_type not in self.message_types:
            self.relayed_count += 1
            return True
        if (
            self.victim_originators is not None
            and message.originator not in self.victim_originators
        ):
            self.relayed_count += 1
            return True
        if self.rng.random() < self.drop_probability:
            self.dropped_count += 1
            return False
        self.relayed_count += 1
        return True


class OnOffDroppingAttack(GrayholeAttack):
    """Grayhole that drops only during periodic on-windows.

    The attack alternates ``on_duration`` seconds of (probabilistic)
    dropping with ``off_duration`` seconds of faithful relaying, starting at
    ``start_time``.  During the off-windows the node is indistinguishable
    from an honest MPR, which starves the detector of fresh evidence and
    exercises the trust system's forgetting factor between bursts.
    """

    name = "onoff-dropping"

    def __init__(
        self,
        drop_probability: float = 1.0,
        on_duration: float = 10.0,
        off_duration: float = 10.0,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        message_types: Optional[Iterable[MessageType]] = None,
        victim_originators: Optional[Iterable[str]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(
            drop_probability=drop_probability,
            message_types=message_types,
            victim_originators=victim_originators,
            schedule=PeriodicSchedule(
                start_time=start_time,
                stop_time=stop_time,
                on_duration=on_duration,
                off_duration=off_duration,
            ),
            rng=rng,
        )
