"""The benchmark's four workloads.

Every workload is a closed loop with one client: one process runs one
operation at a time and each operation starts when the previous one ends.
An operation's inputs derive from the run seed alone (:func:`op_seed`), and
its output reduces to a digest that a change which only speeds the program
up must leave identical.

The program is driven only through its public entry points:
``build_netsim_scenario``/``drive_netsim_scenario``, ``run_experiment``
with a ``ResultsStore`` and ``validate_corpus``.  Each is looked up on its
module at call time, so the tracer's wrappers (see ``tracer.py``) see the
calls too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Seed whose operation digests are pinned in ``digests.json``.
DEFAULT_SEED = 1

#: An unreached responder's answer is recorded as 0 (neither confirm nor deny).
_ANSWER_MISSING = 0.0


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of operation ``index`` of a run seeded with ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def digest_of(payload) -> str:
    """SHA-256 of the canonical JSON of ``payload`` (floats repr-exact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class OpResult:
    """What one operation produced."""

    digest: str
    #: Cells or fuzz samples the operation completed (``attempted``).
    ops: int
    #: Throughput units: scalar-equivalent simulated events on the netsim
    #: workloads, cells or fuzz samples on the others.
    work: int
    #: Fuzz samples that reported a validation issue.
    issues: int = 0


class _Workload:
    """Operation inputs: ``distinct`` seeds derived from the run seed."""

    name: str
    distinct: int

    def inputs(self, seed: int, count: Optional[int] = None) -> List[int]:
        """The first ``count`` (default: all) operation inputs of ``seed``."""
        return [op_seed(self.name, seed, i) for i in range(count or self.distinct)]


class NetsimCells(_Workload):
    """One full-stack OLSR cell per operation, each on its own seed.

    With ``min_connected`` a cell seed is kept only when at least that many
    nodes share one radio component at placement; the others are skipped.
    Near the percolation threshold a fragmented placement runs a fraction
    of the flooding for the same investigation cost, so unfiltered cells
    differ up to 1.4x in cost per event.
    """

    work_unit = "events"
    #: Distinct cells per seed; the loop cycles through them.  A run reaches
    #: about six, so in practice only the warm-up cell repeats.
    distinct = 16

    def __init__(self, name: str, params: Dict[str, object],
                 min_connected: Optional[int] = None) -> None:
        self.name = name
        self.params = dict(params)
        self.min_connected = min_connected

    def inputs(self, seed: int, count: Optional[int] = None) -> List[int]:
        if self.min_connected is None:
            return super().inputs(seed, count)
        kept: List[int] = []
        index = 0
        while len(kept) < (count or self.distinct):
            candidate = op_seed(self.name, seed, index)
            index += 1
            if self._largest_component(candidate) >= self.min_connected:
                kept.append(candidate)
        return kept

    def _largest_component(self, cell_seed: int) -> int:
        """Nodes in the largest radio component of the cell's placement."""
        links = self.setup(cell_seed)[1].network.medium.connectivity_matrix()
        largest, seen = 0, set()
        for start in links:
            if start in seen:
                continue
            seen.add(start)
            stack, size = [start], 0
            while stack:
                size += 1
                for neighbour in links[stack.pop()]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            largest = max(largest, size)
        return largest

    def probe(self, cell_seed: int) -> None:
        """Set-up up to the first simulated event: the scenario build."""
        self.setup(cell_seed)

    def setup(self, cell_seed: int):
        from repro.experiments import backends

        config = backends.scenario_config_from_params(self.params, cell_seed)
        return config, backends.build_netsim_scenario(config, self.params)

    def execute(self, prepared) -> OpResult:
        from repro.experiments import backends

        config, scenario = prepared
        result = backends.drive_netsim_scenario(scenario, config, self.params)
        stats = scenario.network.medium.stats
        decisions = scenario.victim.decision_history
        answers = [a for d in decisions for a in d.answers.values()]
        events = int(result.stats["events_processed"])
        payload = {
            "rounds": [dataclasses.asdict(record) for record in result.rounds],
            "decisions": [(d.suspect, d.detect_value, str(d.outcome), d.interval.margin)
                          for d in decisions],
            "events": events,
            "frames": [stats.frames_sent, stats.frames_delivered, stats.frames_lost,
                       stats.frames_collided, stats.frames_out_of_range,
                       stats.frames_unroutable],
            "queries": len(answers),
            "queries_unreached": sum(1 for a in answers if a == _ANSWER_MISSING),
        }
        return OpResult(digest_of(payload), ops=1, work=events)


class OracleSweep(_Workload):
    """The paper's round-based experiments on the oracle backend.

    One operation is one pass: every experiment at every population, for
    one base seed, through ``run_experiment`` into a fresh ``ResultsStore``,
    with each report rendered.  ``gravity_ablation`` is left out: its rows
    depend on ``PYTHONHASHSEED`` (see NOTES.md).
    """

    name = "oracle-sweep"
    work_unit = "cells"
    distinct = 8

    def __init__(self, experiments: Sequence[str], populations: Sequence[int]) -> None:
        self.experiments = tuple(experiments)
        self.populations = tuple(populations)

    def _grid(self) -> List[Tuple[str, int]]:
        return [(name, population) for population in self.populations
                for name in self.experiments]

    def probe(self, base_seed: int) -> None:
        """Set-up up to the first cell: store open and grid expansion."""
        from repro.experiments import engine

        _, store, workdir = self.setup(base_seed)
        try:
            for name, population in self._grid():
                engine.expand_experiment(name, base_seed=base_seed,
                                         params={"total_nodes": population})
        finally:
            store.close()
            shutil.rmtree(workdir)

    def setup(self, base_seed: int):
        from repro.experiments import results

        workdir = Path(tempfile.mkdtemp(prefix="oracle-", dir=_scratch_dir()))
        return base_seed, results.ResultsStore(str(workdir / "sweep.sqlite")), workdir

    def execute(self, prepared) -> OpResult:
        from repro.experiments import engine

        base_seed, store, workdir = prepared
        outputs = []
        cells = 0
        try:
            for name, population in self._grid():
                run = engine.run_experiment(name, store=store, base_seed=base_seed,
                                            params={"total_nodes": population})
                outputs.append((run.format_report(), run.rows()))
                cells += run.cells()
        finally:
            store.close()
            shutil.rmtree(workdir)
        return OpResult(digest_of(outputs), ops=cells, work=cells)


class ValidateFuzz(_Workload):
    """``validate_corpus`` over seeded fuzz corpora, minimisation off."""

    name = "validate-fuzz"
    work_unit = "samples"
    distinct = 16

    def __init__(self, samples: int) -> None:
        self.samples = samples

    def probe(self, base_seed: int) -> None:
        """Set-up up to the first sample: corpus expansion."""
        from repro.scenarios import ScenarioFuzzer, apply_profile

        for sample in ScenarioFuzzer(base_seed).corpus(self.samples):
            apply_profile(sample.params_dict())

    def setup(self, base_seed: int):
        return base_seed

    def execute(self, base_seed) -> OpResult:
        from repro.validation import fuzz

        report = fuzz.validate_corpus(self.samples, base_seed=base_seed, minimize=False)
        issues = len({issue.sample for issue in report.issues})
        return OpResult(digest_of(report.format_report()), ops=report.samples,
                        work=report.samples, issues=issues)


def _scratch_dir() -> Path:
    """Per-checkout scratch space for results stores (git-ignored)."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


_NETSIM_CELL = {
    "liar_fraction": 0.1,
    "attack_variant": "false_existing_link",
    # Spoofing starts inside the one detection cycle, so a cell is mostly
    # flooding and investigates once; earlier starts let the investigation
    # (whose cost varies widely with the topology) dominate small cells.
    "warmup": 12.0,
    "attack_start": 13.0,
    "cycles": 1,
    "cycle_length": 5.0,
}


def build_workloads(toy: bool = False) -> Dict[str, object]:
    """The four workloads, by name; ``toy`` shrinks each to a few seconds."""
    if toy:
        tiny = dict(_NETSIM_CELL, warmup=4.0, attack_start=2.0, cycle_length=2.0)
        return {
            "dense-static": NetsimCells("dense-static", dict(
                tiny, total_nodes=10, area_size=500.0,
                loss_model="bernoulli", loss_probability=0.1)),
            "mobile-churn": NetsimCells("mobile-churn", dict(
                tiny, total_nodes=8, area_size=400.0, loss_model="distance",
                loss_probability=0.3, mobility_model="gauss-markov", max_speed=8.0)),
            "oracle-sweep": OracleSweep(("figure1",), (12,)),
            "validate-fuzz": ValidateFuzz(samples=1),
        }
    return {
        # 128 static nodes in 1980 m: the node density of a 256-node cell in
        # 2800 m, about six neighbours per node.
        "dense-static": NetsimCells("dense-static", dict(
            _NETSIM_CELL, total_nodes=128, area_size=1980.0,
            loss_model="bernoulli", loss_probability=0.1), min_connected=120),
        # 64 Gauss-Markov nodes in 1000 m: about twelve neighbours, links
        # changing on every mobility tick.
        "mobile-churn": NetsimCells("mobile-churn", dict(
            _NETSIM_CELL, total_nodes=64, area_size=1000.0, loss_model="distance",
            loss_probability=0.3, mobility_model="gauss-markov", max_speed=8.0)),
        # 12 and 48 nodes sit on both sides of the 16-subject Eq. 5 vector
        # threshold of the trust manager.
        "oracle-sweep": OracleSweep(
            ("figure1", "figure2", "figure3", "confidence_sweep", "ablation",
             "adaptivity"), (12, 48)),
        "validate-fuzz": ValidateFuzz(samples=4),
    }
