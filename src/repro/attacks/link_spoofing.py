"""Link-spoofing attack (the paper's developed attack, Section III-A).

The intruder forges its HELLO messages so that the advertised symmetric
neighbourhood ``NS'_I`` differs from the real one ``NS_I``.  The three
variants correspond to Expressions 1–3:

* :attr:`LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR` — declare a phantom node
  as symmetric neighbour, guaranteeing a misbehaving node becomes MPR.
* :attr:`LinkSpoofingVariant.FALSE_EXISTING_LINK` — declare an existing but
  non-adjacent node as neighbour, provisioning a blackhole.
* :attr:`LinkSpoofingVariant.OMITTED_NEIGHBOR` — omit a real neighbour,
  artificially shrinking connectivity.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.attacks.base import Attack, AttackSchedule, _underlying_router
from repro.core.signatures import LinkSpoofingVariant
from repro.olsr.constants import LinkType, NeighborType
from repro.olsr.messages import HelloMessage, LinkAdvertisement


class LinkSpoofingAttack(Attack):
    """Forges the HELLO advertisements of the compromised node."""

    name = "link-spoofing"

    def __init__(
        self,
        variant: LinkSpoofingVariant,
        target_addresses: Iterable[str],
        schedule: Optional[AttackSchedule] = None,
        advertise_as_mpr_selector: bool = False,
    ) -> None:
        """``target_addresses`` are the addresses to add (variants 1 and 2) or
        to omit (variant 3).  ``advertise_as_mpr_selector`` additionally marks
        the spoofed neighbours with the MPR neighbour type, an aggressive
        refinement that speeds up the corruption of the MPR selection."""
        super().__init__(schedule)
        self.variant = variant
        self.target_addresses: List[str] = sorted(set(target_addresses))
        self.advertise_as_mpr_selector = advertise_as_mpr_selector
        if not self.target_addresses:
            raise ValueError("link spoofing requires at least one target address")

    # ------------------------------------------------------------------ hooks
    def install(self, node) -> None:
        olsr = _underlying_router(node)
        olsr.hello_mutators.append(self._mutate_hello)
        self.mark_installed(olsr.node_id)

    def _mutate_hello(self, hello: HelloMessage, node) -> HelloMessage:
        if not self.is_active(node.now):
            return hello
        if self.variant == LinkSpoofingVariant.OMITTED_NEIGHBOR:
            return self._omit_neighbors(hello)
        return self._add_spoofed_links(hello, node)

    def _add_spoofed_links(self, hello: HelloMessage, node) -> HelloMessage:
        forged = hello.copy()
        already = forged.all_addresses()
        neighbor_type = (
            NeighborType.MPR_NEIGH if self.advertise_as_mpr_selector else NeighborType.SYM_NEIGH
        )
        for address in self.target_addresses:
            if address in already or address == node.node_id:
                continue
            forged.links.append(
                LinkAdvertisement(
                    neighbor_address=address,
                    link_type=LinkType.SYM_LINK,
                    neighbor_type=neighbor_type,
                )
            )
        return forged

    def _omit_neighbors(self, hello: HelloMessage) -> HelloMessage:
        forged = hello.copy()
        omitted = set(self.target_addresses)
        forged.links = [adv for adv in forged.links if adv.neighbor_address not in omitted]
        return forged

    # ------------------------------------------------------------------ views
    def spoofed_links_of(self, real_symmetric: Set[str]) -> Set[str]:
        """The advertised-but-false (or omitted) links given the real neighbourhood.

        Useful for ground-truth checks in tests and metrics.
        """
        if self.variant == LinkSpoofingVariant.OMITTED_NEIGHBOR:
            return set(self.target_addresses) & real_symmetric
        return set(self.target_addresses) - real_symmetric

    def describe(self) -> dict:
        data = super().describe()
        data["variant"] = str(self.variant)
        data["targets"] = list(self.target_addresses)
        return data


def spoof_non_existent(node_or_id, phantom_addresses: Iterable[str],
                       schedule: Optional[AttackSchedule] = None) -> LinkSpoofingAttack:
    """Build (and optionally install) the Expression-1 variant."""
    attack = LinkSpoofingAttack(
        LinkSpoofingVariant.NON_EXISTENT_NEIGHBOR, phantom_addresses, schedule
    )
    if not isinstance(node_or_id, str) and node_or_id is not None:
        attack.install(node_or_id)
    return attack


def spoof_false_link(node_or_id, victim_addresses: Iterable[str],
                     schedule: Optional[AttackSchedule] = None) -> LinkSpoofingAttack:
    """Build (and optionally install) the Expression-2 variant."""
    attack = LinkSpoofingAttack(
        LinkSpoofingVariant.FALSE_EXISTING_LINK, victim_addresses, schedule
    )
    if not isinstance(node_or_id, str) and node_or_id is not None:
        attack.install(node_or_id)
    return attack


def spoof_omit_neighbor(node_or_id, omitted_addresses: Iterable[str],
                        schedule: Optional[AttackSchedule] = None) -> LinkSpoofingAttack:
    """Build (and optionally install) the Expression-3 variant."""
    attack = LinkSpoofingAttack(
        LinkSpoofingVariant.OMITTED_NEIGHBOR, omitted_addresses, schedule
    )
    if not isinstance(node_or_id, str) and node_or_id is not None:
        attack.install(node_or_id)
    return attack
