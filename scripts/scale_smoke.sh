#!/usr/bin/env bash
# Scale smoke test: a reduced 256-node, 2-cycle cell on the full netsim
# backend, whose report must equal the committed golden byte for byte.
# The golden pins the simulation's outputs at scale; regenerate it only for
# a change meant to alter what a spec simulates.
#
# It also prints the cell's peak RSS (the child's ru_maxrss, read with the
# stdlib) and fails above MAX_RSS_MB.  OLSR state keyed by originator (one
# topology entry per TC originator, one sequence map per flooded originator)
# brought the cell from 138.4 to 69.5 MB on Python 3.11.7 and from 134.8 to
# 68.5 MB on Python 3.12.1 (CI's interpreter); the bound sits between.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
MAX_RSS_MB=100

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# area_size keeps node density constant with the campaign defaults
# (~radio_range neighbourhoods); the stock 800 m arena would put all 256
# nodes in mutual range and square the flooding cost.
cell=(figure1 --backend netsim
      --param total_nodes=256 --param liar_count=25
      --param area_size=2800 --param warmup=12 --param cycles=2)

echo "== 256-node cell, 2 cycles"
# ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the one child run.
python - "$workdir/peak_kib" python -m repro.experiments run "${cell[@]}" \
    --output "$workdir/report.txt" <<'PY'
import resource
import subprocess
import sys

subprocess.run(sys.argv[2:], check=True)
with open(sys.argv[1], "w") as out:
    out.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
PY

echo "== diff report vs tests/golden/scale_smoke_figure1.txt"
diff tests/golden/scale_smoke_figure1.txt "$workdir/report.txt"

peak_kib=$(cat "$workdir/peak_kib")
peak_mb=$(awk -v kib="$peak_kib" 'BEGIN { printf "%.1f", kib / 1024 }')
echo "== peak RSS of the 256-node cell: $peak_mb MB (bound $MAX_RSS_MB MB)"
if (( peak_kib > MAX_RSS_MB * 1024 )); then
    echo "scale smoke: FAIL (peak RSS $peak_mb MB above $MAX_RSS_MB MB)"
    exit 1
fi
echo "scale smoke: OK (report byte-identical to the golden, peak RSS $peak_mb MB)"
