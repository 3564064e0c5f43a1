#!/usr/bin/env bash
# Fabric smoke test: the acceptance scenario of the distributed campaign
# fabric, driven entirely through the public CLI.
#
#   1. Run the campaign single-process -> the golden report.
#   2. Dispatch the same campaign to a work-stealing queue.
#   3. Start worker A, SIGKILL it mid-run (its leases are left dangling).
#   4. Worker B drains the queue, stealing A's lapsed leases after the TTL.
#   5. Merge both shards into one store.
#   6. Render the merged store's report with the golden run's flags and
#      diff it against the golden run - byte identity.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Cells sized so worker A cannot finish the campaign before it is killed
# (~0.4s per cell, 9 cells), but the whole smoke stays under a minute.
spec=(confidence_sweep --param total_nodes=250 --param rounds=250)
queue="$workdir/queue.sqlite"
shards="$workdir/shards"

echo "== golden single-process run"
python -m repro.experiments run "${spec[@]}" --output "$workdir/golden.txt"

echo "== dispatch"
python -m repro.experiments fabric dispatch "${spec[@]}" --queue "$queue"

echo "== worker A starts, then dies mid-run"
python -m repro.experiments fabric work --queue "$queue" --group a \
    --shard-dir "$shards" --batch 3 --lease-ttl 4 --poll 0.1 \
    > "$workdir/worker-a.log" 2>&1 &
worker_a=$!
sleep 2
kill -9 "$worker_a" 2>/dev/null || true
wait "$worker_a" 2>/dev/null || true
echo "   SIGKILLed worker A (pid $worker_a)"

echo "== worker B drains the queue, stealing A's lapsed leases"
python -m repro.experiments fabric work --queue "$queue" --group b \
    --shard-dir "$shards" --batch 3 --lease-ttl 15 --poll 0.1 \
    | tee "$workdir/worker-b.log"

python -m repro.experiments fabric status --queue "$queue" \
    | tee "$workdir/status.log"
grep -q "done=9" "$workdir/status.log" || {
    echo "smoke: queue did not finish all 9 cells" >&2; exit 1; }

echo "== merge"
merge_args=()
for shard in "$shards"/shard-*.sqlite; do merge_args+=("$shard"); done
python -m repro.experiments fabric merge "${merge_args[@]}" \
    --into "$workdir/merged.sqlite"

echo "== report from the merged store"
python -m repro.experiments report --db "$workdir/merged.sqlite" \
    --experiment "${spec[@]}" --output "$workdir/merged.txt"

echo "== diff merged report vs golden"
diff "$workdir/merged.txt" "$workdir/golden.txt"
echo "fabric smoke: OK (merged report byte-identical to the golden run)"
