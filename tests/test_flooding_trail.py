"""Every node's full audit trail on the flooded path, pinned to a golden.

perfbench's digests see only the victim's analyzer categories, so they pin
neither the ``DUPLICATE`` records, nor the other nodes' ``FORWARD``/``DROP``
trails, nor :class:`~repro.netsim.stats.NodeStatistics`.  This test does:
24 Gauss–Markov nodes (1000 m square, 8 m/s, distance loss up to 0.3,
seed 1) run for 40 s, every node on a bare ``LogStore`` (the full trail),
and node ``n05`` carries a forward filter that vetoes every third relay, so
``FILTERED`` drops appear too.  Per node it records the SHA-256 of the trail
formatted one olsrd-style line per record (:func:`format_record`), the
record count per category and the statistics; it also records the medium's
frame counts.

The scenario runs in two interpreters, with ``PYTHONHASHSEED`` 0 and 13,
and both must match ``golden/flooding_trail.json``.  The golden was
generated at commit a8c4b37 with ``OlsrNode.process_hello``'s two 2-hop
loops sorted (before that, the ``TWO_HOP`` records of one HELLO followed the
hash seed), and before the receive path was rebuilt around a single
duplicate-set lookup.  Regenerate it only for a change meant to alter a
trail::

    PYTHONPATH=src python tests/test_flooding_trail.py > tests/golden/flooding_trail.json
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.logs.store import LogStore
from repro.netsim.engine import Simulator
from repro.netsim.medium import DistanceLossModel, UnitDiskPropagation, WirelessMedium
from repro.netsim.mobility import GaussMarkovMobility
from repro.netsim.network import Network
from repro.olsr.node import OlsrNode

GOLDEN_PATH = Path(__file__).parent / "golden" / "flooding_trail.json"
SRC = Path(__file__).resolve().parent.parent / "src"

STATISTICS = ("messages_received", "messages_forwarded", "messages_dropped",
              "duplicates_suppressed")
FRAME_COUNTS = ("frames_sent", "frames_delivered", "frames_lost",
                "frames_collided", "frames_out_of_range", "frames_unroutable")


def format_record(record) -> str:
    """One olsrd-style text line: the header keys, then the fields sorted by
    key, a value quoted when it is empty or holds whitespace."""
    parts = [
        f"t={record.time:.6f}",
        f"node={record.node}",
        f"cat={record.category.value}",
        f"event={record.event}",
    ]
    for key in sorted(record.fields):
        value = record.fields[key]
        if value == "" or any(ch.isspace() for ch in value):
            parts.append(f'{key}="{value}"')
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def node_statistics(stats) -> dict:
    """The golden's view of a node's ``NodeStatistics``."""
    summary = {name: getattr(stats, name) for name in STATISTICS}
    summary["messages_sent"] = sum(stats.per_type_sent.values())
    for kind, name in (("HELLO", "hello"), ("TC", "tc")):
        summary[f"{name}_sent"] = stats.per_type_sent.get(kind, 0)
        summary[f"{name}_received"] = stats.per_type_received.get(kind, 0)
    summary["per_type_sent"] = dict(stats.per_type_sent)
    summary["per_type_received"] = dict(stats.per_type_received)
    return summary


class EveryThirdRelayVetoed:
    """Forward filter that allows two relays, then vetoes one."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, message, last_hop, node) -> bool:
        self.calls += 1
        return self.calls % 3 != 0


def flooding_trail(seed: int = 1, node_count: int = 24, area: float = 1000.0,
                   until: float = 40.0) -> dict:
    """Run the scenario and summarise every node's trail and statistics."""
    simulator = Simulator()
    medium = WirelessMedium(
        simulator,
        propagation=UnitDiskPropagation(radio_range=250.0),
        loss_model=DistanceLossModel(radio_range=250.0, max_loss=0.3,
                                     rng=random.Random(seed)),
    )
    network = Network(simulator=simulator, medium=medium, mobility=GaussMarkovMobility(
        width=area, height=area, mean_speed=8.0, rng=random.Random(seed)))
    node_ids = [f"n{i:02d}" for i in range(node_count)]
    network.add_nodes(node_ids)
    nodes = {node_id: OlsrNode(node_id, network, log_store=LogStore(node_id))
             for node_id in node_ids}
    nodes["n05"].forward_filters.append(EveryThirdRelayVetoed())
    for node in nodes.values():
        node.start()
    network.run(until=until)

    summary = {}
    for node_id, node in nodes.items():
        trail = "\n".join(format_record(record) for record in node.log)
        summary[node_id] = {
            "trail_sha256": hashlib.sha256(trail.encode()).hexdigest(),
            "records": dict(Counter(record.category.value for record in node.log)),
            "statistics": node_statistics(node.stats),
        }
    return {
        "nodes": summary,
        "medium": {name: getattr(medium.stats, name) for name in FRAME_COUNTS},
    }


def test_flooding_trail_matches_golden_under_two_hash_seeds():
    golden = json.loads(GOLDEN_PATH.read_text())
    for hash_seed in ("0", "13"):
        process = subprocess.run(
            [sys.executable, __file__], capture_output=True, text=True,
            env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert process.returncode == 0, process.stderr
        assert json.loads(process.stdout) == golden, f"PYTHONHASHSEED={hash_seed}"


if __name__ == "__main__":
    print(json.dumps(flooding_trail(), indent=1, sort_keys=True))
