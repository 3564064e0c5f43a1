"""Baselines re-implemented from the paper's related-work section.

* :mod:`repro.baselines.watchdog` — Watchdog/Pathrater (Marti et al. 2000).
* :mod:`repro.baselines.cap_olsr` — CAP-OLSR entropy trust (Babu et al. 2008).
* :mod:`repro.baselines.beta_reputation` — Bayesian Beta reputation with
  deviation test and fading (Buchegger & Le Boudec).
* :mod:`repro.baselines.averaging` — plain report averaging (Liu et al. 2004).

Each baseline exposes a ``process_round(suspect, answers)`` adapter
(``WatchdogPathrater`` included) so the comparison benches and the
``campaign`` experiment's per-system rows (:mod:`repro.experiments.campaign`)
can feed all of them the exact same investigation answers the paper's
detector receives.
"""

from repro.baselines.averaging import AveragingTrustSystem, TrustReport
from repro.baselines.beta_reputation import BetaReputation, BetaReputationSystem
from repro.baselines.cap_olsr import CapOlsrDetector, CapOlsrTrust, RelayObservation
from repro.baselines.watchdog import Pathrater, Watchdog, WatchdogPathrater, WatchdogRecord

__all__ = [
    "AveragingTrustSystem",
    "BetaReputation",
    "BetaReputationSystem",
    "CapOlsrDetector",
    "CapOlsrTrust",
    "Pathrater",
    "RelayObservation",
    "TrustReport",
    "Watchdog",
    "WatchdogPathrater",
    "WatchdogRecord",
]
