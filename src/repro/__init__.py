"""repro — Trust-enabled link spoofing detection in MANETs.

Reproduction of *"Trust-enabled Link Spoofing Detection in MANET"*
(Alattar, Sailhan, Bourgeois — ICDCS 2012 workshops).  The package bundles:

* ``repro.netsim`` — a discrete-event MANET simulator,
* ``repro.olsr`` — a pure-Python OLSR (RFC 3626) implementation emitting
  audit logs,
* ``repro.logs`` — the audit-log records, parser and analyzer,
* ``repro.attacks`` — link spoofing and the other attacks of the paper's
  taxonomy, plus colluding liars,
* ``repro.core`` — the log/signature-based detector, the cooperative
  investigation (Algorithm 1) and the decision rule,
* ``repro.trust`` — the entropy-based trust system with the confidence
  interval,
* ``repro.baselines`` — Watchdog/Pathrater, CAP-OLSR, Beta reputation and
  report averaging,
* ``repro.metrics`` and ``repro.experiments`` — the evaluation harness
  regenerating the paper's figures.

Quick start::

    from repro.experiments import run_figure1
    result = run_figure1()
    print(result.rows())
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
    run_ablation,
    run_confidence_sweep,
    run_figure1,
    run_figure2,
    run_figure3,
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
    "run_ablation",
    "run_confidence_sweep",
    "run_figure1",
    "run_figure2",
    "run_figure3",
]
