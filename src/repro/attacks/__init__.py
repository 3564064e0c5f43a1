"""Attack implementations against the OLSR substrate.

The paper's taxonomy (Section II-B) distinguishes drop attacks, active-forge
attacks and modify-and-forward attacks.  The one it evaluates is the *link
spoofing* active forge, against colluding liars; this package implements
that attack, the liars and the drop attacks (blackhole, grayhole).  Every
class installs hooks on the victim node (HELLO mutators, forward filters,
answer mutators) rather than patching the protocol implementation.

Adaptive tier (:mod:`repro.attacks.adaptive`)
---------------------------------------------
On top of the open-loop attacks sits a *closed-loop* tier: adversaries that
observe the detector's state and modulate their own behaviour.  The
feedback surface is deliberately narrow — a read-only
:class:`~repro.attacks.adaptive.TrustProbe` over
``TrustManager.trust_of``, i.e. exactly the signal a real attacker could
estimate from how its neighbours treat it — and the adaptation hook is one
method, ``observe(now)``, called once per detection cycle by the drivers
(the oracle round loop via ``ScenarioConfig.adaptivity``, the netsim
backend via ``SimulationScenario.adaptive_attacks``).  Three adversaries
implement the tier:

* :class:`~repro.attacks.adaptive.ThresholdRidingGrayhole` — throttles and
  pauses its dropping as its observed trust nears the classification
  threshold, resuming once the forgetting factor restores headroom;
* :class:`~repro.attacks.adaptive.RotatingLiarClique` — one active liar per
  epoch, the rest honest, starving each liar's direct trust of harmful
  evidence;
* the detectability search loop (:mod:`repro.attacks.search`) — a (1+λ)
  evolutionary search over fuzzer corpora hunting the least-detectable
  attack configuration (CLI: ``python -m repro.experiments attack-search``).

Seeding: attacks default to a per-node deterministic RNG derived at
``install()`` time via ``stable_seed(0, f"attack:{name}:{node_id}")``, so
two attackers never share a stream unless the caller passes one RNG to
both on purpose.
"""

from repro.attacks.adaptive import (
    AdaptiveAttack,
    RotatingLiarClique,
    ThresholdRidingGrayhole,
    TrustProbe,
)
from repro.attacks.base import Attack, AttackSchedule, PeriodicSchedule
from repro.attacks.collusion import (
    CliqueMember,
    LiarClique,
    ThreatStack,
    grayhole_liar_stack,
)
from repro.attacks.dropping import (
    BlackholeAttack,
    GrayholeAttack,
    OnOffDroppingAttack,
)
from repro.attacks.liar import LiarBehavior
from repro.attacks.link_spoofing import LinkSpoofingAttack
from repro.attacks.scenario import AttackScenario

__all__ = [
    "AdaptiveAttack",
    "Attack",
    "AttackSchedule",
    "AttackScenario",
    "BlackholeAttack",
    "CliqueMember",
    "GrayholeAttack",
    "LiarBehavior",
    "LiarClique",
    "LinkSpoofingAttack",
    "OnOffDroppingAttack",
    "PeriodicSchedule",
    "RotatingLiarClique",
    "ThresholdRidingGrayhole",
    "ThreatStack",
    "TrustProbe",
    "grayhole_liar_stack",
]
