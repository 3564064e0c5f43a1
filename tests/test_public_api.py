"""Tests for the top-level public API surface."""

from __future__ import annotations

import ast
import importlib
import sys
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


def test_quickstart_snippet_from_readme_works(capsys):
    """README's "Library quickstart" block runs as written."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library quickstart\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    result = namespace["result"]
    assert result.rows()
    assert result.format_report() in capsys.readouterr().out


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


def test_src_imports_only_the_standard_library():
    """Every module under ``src/`` imports only the standard library and
    ``repro``, at any depth (function-local imports included): the package
    installs and runs with no third-party dependency.  The sources are
    parsed with :mod:`ast`; nothing is imported."""
    src = Path(repro.__file__).resolve().parent.parent
    allowed = set(sys.stdlib_module_names) | {"repro"}
    outside = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.relative_to(src)}:{node.lineno} {name}"
                        for name in names if name.split(".")[0] not in allowed]
    assert outside == []
