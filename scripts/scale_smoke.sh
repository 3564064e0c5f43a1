#!/usr/bin/env bash
# Scale smoke test: a reduced 256-node, 2-cycle cell on the full netsim
# backend, whose report must equal the committed golden byte for byte.
# The golden pins the simulation's outputs at scale; regenerate it only for
# a change meant to alter what a spec simulates.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# area_size keeps node density constant with the campaign defaults
# (~radio_range neighbourhoods); the stock 800 m arena would put all 256
# nodes in mutual range and square the flooding cost.
cell=(figure1 --backend netsim
      --param total_nodes=256 --param liar_count=25
      --param area_size=2800 --param warmup=12 --param cycles=2)

echo "== 256-node cell, 2 cycles"
python -m repro.experiments run "${cell[@]}" --output "$workdir/report.txt"

echo "== diff report vs tests/golden/scale_smoke_figure1.txt"
diff tests/golden/scale_smoke_figure1.txt "$workdir/report.txt"
echo "scale smoke: OK (report byte-identical to the golden)"
