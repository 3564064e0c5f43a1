"""Scenario library: composable scenario profiles.

This package turns "a scenario" into a first-class, named object:

* :mod:`repro.scenarios.profiles` — the :class:`ScenarioProfile` registry.
  A profile is a frozen bundle of experiment parameters (a mobility regime,
  a threat composition, or a full composite scenario).  The engine-level
  ``profile`` parameter resolves through :func:`apply_profile`, so every
  registered experiment can sweep profiles from the unified CLI::

      python -m repro.experiments run figure1 --backend netsim \
          --axis profile=paper-static,gauss-markov,rpgm
      python -m repro.experiments run figure3 --backend netsim \
          --param profile=liar-clique

* :mod:`repro.scenarios.fuzzer` — the seeded scenario fuzzer.  It samples
  valid scenarios from a constrained space (profile × population × liars ×
  channel × spoofing expression); corpora are pure functions of
  ``(base_seed, index)``.  ``python -m repro.experiments validate`` runs the
  corpus through the structural invariants and the oracle↔netsim
  differential harness of :mod:`repro.validation`.

How to add a scenario profile
-----------------------------
1. If the profile needs new *mechanics*, implement them first: a mobility
   model in :mod:`repro.netsim.mobility` (implement ``place``/``install``),
   or an attack/composition in :mod:`repro.attacks` (subclass ``Attack``,
   install hooks only).  Wire a name for it through
   :func:`repro.experiments.scenario.build_manet_scenario` (the
   ``mobility_model`` / ``threat`` switches) and add any new knob to
   ``NETSIM_PARAMS`` in :mod:`repro.experiments.backends` so the CLI
   validates it.
2. Declare the profile in :mod:`repro.scenarios.profiles`::

       MY_PROFILE = register_profile(ScenarioProfile(
           name="my-profile",
           description="one line for listings",
           kind="mobility",            # or "threat" / "composite"
           params=(("mobility_model", "my-model"), ("max_speed", 3.0)),
           differential=False,          # True only if the oracle backend
       ))                               # models the same process
3. That's it: the profile is now sweepable (``--axis profile=my-profile``),
   fuzzable (the fuzzer samples every registered profile) and validated
   (``validate`` runs it through the invariant checkers).  Add it to the
   expectations in ``tests/test_scenarios_profiles.py``.

How to add an invariant
-----------------------
Structural invariants live in :mod:`repro.validation.invariants`.  Write a
``check_*`` function taking a built
:class:`~repro.experiments.scenario.SimulationScenario` and returning a list
of :class:`~repro.validation.invariants.InvariantViolation`; register it in
``ALL_INVARIANTS`` there.  Every ``validate`` run and every fuzzed scenario
then enforces it.  Keep checkers read-only — they run against live
simulation state after the run and must not mutate it.
"""

from repro.scenarios.fuzzer import (
    FuzzedScenario,
    ScenarioFuzzer,
    reproducer_command,
)
from repro.scenarios.profiles import (
    ScenarioProfile,
    apply_profile,
    get_profile,
    list_profiles,
    register_profile,
)

__all__ = [
    "FuzzedScenario",
    "ScenarioFuzzer",
    "ScenarioProfile",
    "apply_profile",
    "get_profile",
    "list_profiles",
    "register_profile",
    "reproducer_command",
]
