"""An oracle-sweep pass makes few Python calls per query, on any host.

An investigation round should cost one transport call per query and one
pass per equation.  Wall-clock checks of that depend on the host; the
number of Python function calls does not.  This test runs the six
experiments of perfbench's ``oracle-sweep`` workload at 12 and 48 nodes,
base seed 1, through ``run_experiment`` into a results store, counts the
``call`` events ``sys.setprofile`` reports and divides them by the calls
to ``OracleTransport.verify_link`` (the queries).  List, dict and set
comprehension frames are left out of the count because Python 3.12
inlines them.  Before the one-pass round it was 13.2 calls per query, and
5.15 while the round-based driver switched every liar back to its schedule
each round; a per-responder helper, trust read, schedule check or
generator coming back into the round pushes it over the bound.
"""

from __future__ import annotations

import sys

from repro.core.investigation import OracleTransport
from repro.experiments import engine
from repro.experiments.results import ResultsStore

_EXPERIMENTS = ("figure1", "figure2", "figure3", "confidence_sweep", "ablation",
                "adaptivity")
_POPULATIONS = (12, 48)
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
MAX_CALLS_PER_QUERY = 5.0


def test_an_oracle_sweep_pass_makes_at_most_five_calls_per_query(tmp_path):
    engine.list_experiments()  # import the experiment modules outside the count
    query_code = OracleTransport.verify_link.__code__
    counts = {"calls": 0, "queries": 0}

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_name not in _INLINED:
                counts["calls"] += 1
                if code is query_code:
                    counts["queries"] += 1

    store = ResultsStore(str(tmp_path / "sweep.sqlite"))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for population in _POPULATIONS:
            for name in _EXPERIMENTS:
                engine.run_experiment(name, store=store, base_seed=1,
                                      params={"total_nodes": population})
    finally:
        sys.setprofile(previous)
        store.close()
    assert counts["queries"] > 20_000
    per_query = counts["calls"] / counts["queries"]
    assert per_query <= MAX_CALLS_PER_QUERY, (
        f"{per_query:.2f} Python calls per query ({counts['calls']} calls, "
        f"{counts['queries']} queries)")
