"""Tests for the top-level public API surface."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


@pytest.mark.parametrize("module_name", [
    "repro.core", "repro.trust", "repro.olsr", "repro.netsim", "repro.logs",
    "repro.attacks", "repro.baselines", "repro.metrics", "repro.experiments",
])
def test_subpackage_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_quickstart_snippet_from_readme_works():
    result = repro.run_figure1(repro.ScenarioConfig(seed=1, rounds=5))
    rows = result.rows()
    assert rows and all("final_trust" in row for row in rows)


def test_top_level_trust_primitives():
    manager = repro.TrustManager("me", repro.TrustParameters())
    assert 0.0 <= manager.trust_of("anyone") <= 1.0
    interval = repro.confidence_interval([1.0, -1.0], center=0.0)
    assert interval.margin > 0
    assert repro.decide(-0.95, 0.05, gamma=0.6) == repro.DecisionOutcome.INTRUDER


def test_public_docstrings_on_key_classes():
    for obj in (repro.DetectorNode, repro.TrustManager, repro.RoundBasedExperiment,
                repro.ScenarioConfig, repro.aggregate_detection, repro.decide):
        assert obj.__doc__, f"{obj!r} lacks a docstring"


def test_setup_path_leaves_numpy_unimported(tmp_path):
    """``import repro``, a scenario build, grid expansion and a results
    store open must not import numpy: its 100–135 ms import would land in
    every run's set-up time.  Only the wide-slot Eq. 5 trust update uses it."""
    script = textwrap.dedent(f"""
        import sys

        import repro
        from repro.experiments import backends, engine, results

        params = {{"total_nodes": 8}}
        config = backends.scenario_config_from_params(params, 1)
        backends.build_netsim_scenario(config, params)
        engine.expand_experiment("figure1", base_seed=1,
                                 params={{"total_nodes": 12}})
        results.ResultsStore({str(tmp_path / "store.sqlite")!r}).close()
        assert "numpy" not in sys.modules, sorted(sys.modules)
    """)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
