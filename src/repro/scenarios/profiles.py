"""Composable scenario profiles.

A :class:`ScenarioProfile` is a named, frozen bundle of experiment
parameters — a mobility regime, a threat composition, or a full composite
scenario — registered in a process-wide registry.  Profiles are the unit the
scenario fuzzer samples (:mod:`repro.scenarios.fuzzer`), the validation
harness cross-checks (:mod:`repro.validation`) and the experiment engine
sweeps: the engine-level ``profile`` parameter resolves through
:func:`apply_profile`, so ``--axis profile=gauss-markov,rpgm`` turns any
registered experiment into a scenario sweep.

Precedence: profile parameters sit *under* the cell's own parameters — an
experiment's declared axes and fixed parameters always win — and *over* the
backend defaults.  That is what makes profiles composable: ``run mobility
--param profile=rpgm`` sweeps the experiment's ``max_speed`` axis inside the
profile's group-mobility regime instead of fighting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class ScenarioProfile:
    """One named scenario regime (frozen).

    ``kind`` is ``"mobility"``, ``"threat"`` or ``"composite"`` — purely
    descriptive, used by listings and the fuzzer's sampling space.
    ``differential`` marks profiles whose netsim execution models the same
    process the oracle backend does (link-spoofing attacker + liars), i.e.
    the ones the oracle↔netsim differential harness may compare; threat
    compositions the oracle loop cannot express (grayholes, coordinated
    cliques) are invariant-checked only.
    """

    name: str
    description: str
    kind: str
    params: Tuple[Tuple[str, object], ...] = ()
    differential: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("mobility", "threat", "composite"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    def params_dict(self) -> Dict[str, object]:
        """The profile's parameters as a plain dict."""
        return dict(self.params)


_PROFILES: Dict[str, ScenarioProfile] = {}


def register_profile(profile: ScenarioProfile) -> ScenarioProfile:
    """Register (or replace) a scenario profile; returns it."""
    _PROFILES[profile.name] = profile
    return profile


def get_profile(name: str) -> ScenarioProfile:
    """Look up a registered profile by name."""
    try:
        return _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES)) or "(none)"
        raise KeyError(f"unknown scenario profile {name!r} (registered: {known})") from None


def list_profiles(kind: Optional[str] = None) -> List[ScenarioProfile]:
    """Every registered profile (optionally restricted to one kind), by name."""
    return [
        _PROFILES[name] for name in sorted(_PROFILES)
        if kind is None or _PROFILES[name].kind == kind
    ]


def apply_profile(params: Mapping[str, object]) -> Dict[str, object]:
    """Merge the named profile's parameters under ``params``.

    ``params["profile"]`` names the profile; the cell's own parameters win
    on conflict (see the module docstring for why).  Raises ``ValueError``
    for unknown names so a typo'd ``--axis profile=...`` fails fast instead
    of running the default scenario under a wrong label.
    """
    name = params.get("profile")
    if not name:
        return dict(params)
    try:
        profile = get_profile(str(name))
    except KeyError as error:
        raise ValueError(str(error.args[0])) from None
    merged: Dict[str, object] = profile.params_dict()
    merged.update(params)
    return merged


# ---------------------------------------------------------------- built-ins
#: Mobility regimes.  Speeds are deliberately modest: the investigation
#: needs the suspect's neighbourhood to persist for at least one detection
#: cycle to say anything at all.
GAUSS_MARKOV_PROFILE = register_profile(ScenarioProfile(
    name="gauss-markov",
    description="smooth temporally-correlated motion (Gauss-Markov, 2 m/s mean)",
    kind="mobility",
    params=(("mobility_model", "gauss-markov"), ("max_speed", 2.0)),
))

RPGM_PROFILE = register_profile(ScenarioProfile(
    name="rpgm",
    description="reference-point group mobility: platoons moving as clusters",
    kind="mobility",
    params=(("mobility_model", "rpgm"), ("max_speed", 2.0)),
))

WAYPOINT_PROFILE = register_profile(ScenarioProfile(
    name="waypoint",
    description="classic random-waypoint motion at 2 m/s",
    kind="mobility",
    params=(("mobility_model", "waypoint"), ("max_speed", 2.0)),
))

#: Threat compositions.  The oracle round loop only models the paper's
#: link-spoofing + independent liars, so the richer compositions are
#: netsim-only (``differential=False``) and validated structurally.
ONOFF_GRAYHOLE_PROFILE = register_profile(ScenarioProfile(
    name="onoff-grayhole",
    description="spoofing attacker that also drops relayed traffic in bursts",
    kind="threat",
    params=(("threat", "onoff-grayhole"), ("drop_probability", 0.8)),
    differential=False,
))

LIAR_CLIQUE_PROFILE = register_profile(ScenarioProfile(
    name="liar-clique",
    description="colluding liars coordinating one shared answer stream",
    kind="threat",
    params=(("threat", "liar-clique"),),
    differential=False,
))

GRAYHOLE_LIAR_PROFILE = register_profile(ScenarioProfile(
    name="grayhole-liar",
    description="stacked threat: grayhole dropping + self-shielding lies",
    kind="threat",
    params=(("threat", "grayhole-liar"), ("drop_probability", 0.7)),
    differential=False,
))

#: Adaptive adversaries (:mod:`repro.attacks.adaptive`): closed-loop threat
#: compositions that observe the detector through a read-only trust probe.
#: The oracle loop *can* express their dynamics (the ``adaptivity`` config
#: field), but the two backends implement them independently rather than
#: modelling one shared stochastic process, so they stay
#: ``differential=False``.
THROTTLING_GRAYHOLE_PROFILE = register_profile(ScenarioProfile(
    name="throttling-grayhole",
    description="adaptive grayhole riding the classification threshold via a trust probe",
    kind="threat",
    params=(("threat", "throttling-grayhole"), ("drop_probability", 0.8),
            ("adaptivity", "throttling")),
    differential=False,
))

ROTATING_CLIQUE_PROFILE = register_profile(ScenarioProfile(
    name="rotating-liar-clique",
    description="liar clique rotating one active liar per epoch, rest honest",
    kind="threat",
    params=(("threat", "rotating-clique"), ("adaptivity", "rotating")),
    differential=False,
))

#: The paper's own regime, as an explicit baseline profile.
PAPER_BASELINE_PROFILE = register_profile(ScenarioProfile(
    name="paper-static",
    description="the paper's setting: static nodes, spoofing + independent liars",
    kind="composite",
    params=(("mobility_model", "static"), ("threat", "link-spoofing")),
))
