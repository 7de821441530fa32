#!/usr/bin/env bash
# A/A self-check: two sets of runs of the SAME build must agree within the
# bounds BENCHMARK.json publishes, and their deterministic fingerprints must
# be identical. Run from anywhere; takes about 20 minutes.
#
#   benchmark/aa.sh [runs-per-set (default 5)] [seed (default 42)]
#
# Exits non-zero when an end-to-end metric's two medians differ by more than
# its bound, when a run reports failed operations, or when a fingerprint
# differs between runs of one seed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-5}"
seed="${2:-42}"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/kgbench"
out="$here/out/aa"
mkdir -p "$out"

seconds="$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")"
workloads="$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")"

# Alternate the sets (A1 B1 A2 B2 …) so drift of the host hits both alike.
for w in $workloads; do
  for i in $(seq 1 "$runs"); do
    for set in A B; do
      echo "aa: $w set $set run $i" >&2
      (cd "$root" && "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) \
        > "$out/$w.$set.$i.txt"
    done
  done
done

python3 - "$root/BENCHMARK.json" "$out" "$runs" <<'PY'
import glob, json, statistics, sys

spec = json.load(open(sys.argv[1]))
out, runs = sys.argv[2], int(sys.argv[3])
bad = False
print(f"{'workload':15s} {'metric':15s} {'median A':>14s} {'median B':>14s} {'diff':>8s} {'bound':>7s}")
for w in [x["name"] for x in spec["workloads"]]:
    sets, prints = {"A": [], "B": []}, set()
    for s in sets:
        for i in range(1, runs + 1):
            lines = open(f"{out}/{w}.{s}.{i}.txt").read().strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"FAIL {w} set {s} run {i}: failed={result['failed']}")
                bad = True
            sets[s].append(result["metrics"])
            prints.update(l for l in lines if l.startswith("fingerprint:"))
    if len(prints) != 1:
        print(f"FAIL {w}: fingerprints differ: {sorted(prints)}")
        bad = True
    for m in spec["end_to_end"]:
        a = statistics.median(r[m["name"]]["value"] for r in sets["A"])
        b = statistics.median(r[m["name"]]["value"] for r in sets["B"])
        diff = abs(a - b) / min(a, b)
        flag = "" if diff <= m["bound"] else "  <-- over bound"
        bad |= diff > m["bound"]
        print(f"{w:15s} {m['name']:15s} {a:14.4f} {b:14.4f} {100*diff:7.2f}% {100*m['bound']:6.1f}%{flag}")
sys.exit(1 if bad else 0)
PY
