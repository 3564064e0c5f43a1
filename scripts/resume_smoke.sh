#!/usr/bin/env bash
# Resume smoke test: a results-store run survives SIGKILL, driven entirely
# through the public CLI.
#
#   1. Run the sweep without a store -> the reference report.
#   2. Run the same sweep with --db in the background, and poll the store
#      until it holds at least one committed cell.
#   3. SIGKILL the run.
#   4. Re-run it with --resume: it must skip k >= 1 stored cells and execute
#      m >= 1 missing ones.
#   5. cmp the resumed report against the reference, byte for byte.
#
# It fails if a cell's rows reach the store before the cell finishes (the
# resumed run then reports stored rows that differ, or skips every cell),
# or if the store does not commit each cell as it finishes (the run then
# never shows a committed cell, or the resumed run skips none).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Cells sized so the run cannot finish the sweep before it is killed
# (~1 s per cell, 9 cells), but the whole smoke stays under a minute.
spec=(confidence_sweep --param total_nodes=250 --param rounds=250)
db="$workdir/store.sqlite"

stored_cells() {
    # Read-only, so polling never creates the store before the run does.
    python -c '
import sqlite3, sys
try:
    store = sqlite3.connect(f"file:{sys.argv[1]}?mode=ro", uri=True)
    print(store.execute("SELECT COUNT(*) FROM runs").fetchone()[0])
except sqlite3.Error:
    print(0)
' "$db"
}

echo "== reference run, no store"
python -m repro.experiments run "${spec[@]}" --output "$workdir/reference.txt" \
    > /dev/null

echo "== --db run, killed once a cell is committed"
python -m repro.experiments run "${spec[@]}" --db "$db" > /dev/null 2>&1 &
run=$!
until [ "$(stored_cells)" -ge 1 ]; do
    if ! kill -0 "$run" 2>/dev/null; then
        echo "smoke: the run exited before the store held a committed cell" >&2
        exit 1
    fi
    sleep 0.1
done
kill -9 "$run"
wait "$run" 2>/dev/null || true
echo "   SIGKILLed the run (pid $run) with $(stored_cells) cells stored"

echo "== resumed run"
python -m repro.experiments run "${spec[@]}" --db "$db" --resume \
    --output "$workdir/resumed.txt" > /dev/null 2> "$workdir/resume.log"
cat "$workdir/resume.log"
line=$(grep -E '^\[resume\] skipped [0-9]+ stored cells, executed [0-9]+$' \
    "$workdir/resume.log") || {
    echo "smoke: the resumed run skipped no stored cell" >&2; exit 1; }
read -r skipped executed <<< "$(echo "$line" | tr -cs '0-9' ' ')"
if [ "$skipped" -lt 1 ] || [ "$executed" -lt 1 ]; then
    echo "smoke: expected k >= 1 skipped and m >= 1 executed cells," \
         "got k=$skipped m=$executed" >&2
    exit 1
fi

echo "== cmp resumed report vs reference"
cmp "$workdir/resumed.txt" "$workdir/reference.txt"
echo "resume smoke: OK (skipped $skipped, executed $executed; report byte-identical)"
