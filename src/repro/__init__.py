"""repro — Trust-enabled link spoofing detection in MANETs.

Reproduction of *"Trust-enabled Link Spoofing Detection in MANET"*
(Alattar, Sailhan, Bourgeois — ICDCS 2012 workshops).  The package bundles:

* ``repro.netsim`` — a discrete-event MANET simulator,
* ``repro.olsr`` — a pure-Python OLSR (RFC 3626) implementation emitting
  audit logs; its ``OlsrNode`` is every simulated node's router,
* ``repro.logs`` — the audit-log records, store and analyzer,
* ``repro.attacks`` — link spoofing, the attack the paper evaluates, with
  its colluding liars, plus drop attacks and adaptive adversaries,
* ``repro.core`` — the log-based detector, the cooperative
  investigation (Algorithm 1) and the decision rule,
* ``repro.trust`` — the entropy-based trust system with the confidence
  interval,
* ``repro.baselines`` — Watchdog/Pathrater, CAP-OLSR, Beta reputation and
  report averaging,
* ``repro.metrics`` and ``repro.experiments`` — the evaluation harness
  regenerating the paper's figures.

Quick start::

    from repro.experiments import run_experiment
    result = run_experiment("figure1")
    print(result.format_report())
"""

from repro.core import (
    DecisionOutcome,
    DetectionConfig,
    DetectorNode,
    LinkSpoofingVariant,
    aggregate_detection,
    decide,
    evaluate_investigation,
)
from repro.experiments import (
    ResultsStore,
    RoundBasedExperiment,
    ScenarioConfig,
    build_canonical_scenario,
    build_manet_scenario,
)
from repro.trust import TrustManager, TrustParameters, confidence_interval

__version__ = "1.0.0"

__all__ = [
    "DecisionOutcome",
    "DetectionConfig",
    "DetectorNode",
    "LinkSpoofingVariant",
    "ResultsStore",
    "RoundBasedExperiment",
    "ScenarioConfig",
    "TrustManager",
    "TrustParameters",
    "__version__",
    "aggregate_detection",
    "build_canonical_scenario",
    "build_manet_scenario",
    "confidence_interval",
    "decide",
    "evaluate_investigation",
]
