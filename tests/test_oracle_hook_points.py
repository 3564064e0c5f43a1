"""The per-round and per-query entry points a tracer wraps on the class.

perfbench's tracer attributes an oracle-backend cell's investigation to the
``core`` layer by wrapping ``CooperativeInvestigator.run_round`` (one call
per investigation round) and ``OracleTransport.verify_link`` (one call per
query, counted as ``core.queries``), and its trust slots to ``trust`` by
wrapping ``TrustManager.update_all`` (one call per round), all on the class
and before the cell is built.  A query that bypassed the transport hook
would move its cost to another layer unseen and drop out of
``core.queries``, so each entry point must be called exactly as often as
the cell's records say.
"""

from __future__ import annotations

from collections import Counter

from repro.core.investigation import CooperativeInvestigator, OracleTransport
from repro.experiments.backends import execute_backend
from repro.experiments.engine import cell_config, expand_experiment
from repro.trust.manager import TrustManager

_HOOKS = ((CooperativeInvestigator, "run_round"), (OracleTransport, "verify_link"),
          (TrustManager, "update_all"))


def _counting(owner, name, counts):
    original = vars(owner)[name]

    def wrapper(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        counts[name] += 1
        if result is None:
            counts[name + ":None"] += 1
        return result

    setattr(owner, name, wrapper)
    return original


def test_every_round_and_query_crosses_its_hook_point_once():
    # 48 nodes, lost answers, and an attack that stops before the last
    # rounds, so some rounds only forget.
    _, specs, _ = expand_experiment("figure3", base_seed=1, params={
        "total_nodes": 48, "answer_loss_probability": 0.25, "attack_stop_round": 18})
    params, config = cell_config(specs[-1])
    counts = Counter()
    originals = [(owner, name, _counting(owner, name, counts)) for owner, name in _HOOKS]
    try:
        result = execute_backend("oracle", config, params)
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    investigated = [r for r in result.rounds if r.detect_value is not None]
    assert 0 < len(investigated) < len(result.rounds)
    assert counts["run_round"] == len(investigated)
    assert counts["verify_link"] == sum(len(r.answers) for r in investigated)
    unreached = sum(r.unreached for r in investigated)
    assert unreached > 0
    assert counts["verify_link:None"] == unreached
    assert counts["update_all"] == len(result.rounds)
    # The wrappers are gone: the class holds its own functions again.
    for owner, name, original in originals:
        assert vars(owner)[name] is original
