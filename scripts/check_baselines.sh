#!/usr/bin/env bash
# Flag regressions against the committed deterministic baselines.
#
# Work units, simulated TTI, result rows and plan fields are exact
# operator counts, so any drift is a real behaviour change: either an
# intended improvement (re-run scripts/capture_baselines.sh and commit
# the new numbers with the PR that earns them) or a regression to
# investigate.
#
# Drift is reported as a *named* diff — which file, which row, which
# column, old -> new — so a CI failure reads as "deterministic.tsv:
# YAGO/RDB-GDB: sim_tti_ns 123 -> 456", not a bare unified diff.
#
# CHECK_ONLY selects a comma-separated subset of the sections
# ({deterministic,serve,explain}); unset runs everything.
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK_ONLY="${CHECK_ONLY:-}"
want() {
  [ -z "$CHECK_ONLY" ] && return 0
  case ",$CHECK_ONLY," in
    *",$1,"*) return 0 ;;
    *) return 1 ;;
  esac
}

# One trap for every temp file any section may create.
tmpfiles=()
cleanup() { [ "${#tmpfiles[@]}" -eq 0 ] || rm -f "${tmpfiles[@]}"; }
trap cleanup EXIT
mktmp() {
  local f
  f=$(mktemp)
  tmpfiles+=("$f")
  printf '%s' "$f"
}

# compare_rows <label> <base-file> <fresh-file>
#
# Both inputs are TSV rows of the shape `key1 key2 <named numeric
# columns...>` with a `# key1 key2 col3 col4 ...` header naming the
# columns. Prints one line per differing cell / missing / extra row,
# prefixed with the label; returns non-zero iff anything differed.
compare_rows() {
  awk -F'\t' -v LABEL="$1" '
    /^#/ {
      # The column-name header (`# workload variant total_work ...`)
      # names the columns used in drift messages.
      if (NF >= 3 && ncols == 0) {
        sub(/^#[ \t]*/, "")
        ncols = split($0, cols, /\t/)
      }
      next
    }
    NF == 0 { next }
    FNR == NR { k = $1 "/" $2; base[k] = $0; pending[k] = FNR; next }
    {
      k = $1 "/" $2
      if (!(k in base)) {
        printf "  %s: row %s only in fresh output\n", LABEL, k
        bad = 1
        next
      }
      split(base[k], b, /\t/)
      for (i = 3; i <= NF; i++) {
        if (b[i] != $i) {
          name = (i <= ncols) ? cols[i] : "col" i
          printf "  %s: row %s: %s %s -> %s\n", LABEL, k, name, b[i], $i
          bad = 1
        }
      }
      delete pending[k]
    }
    END {
      for (k in pending) {
        printf "  %s: row %s missing from fresh output\n", LABEL, k
        bad = 1
      }
      exit bad
    }
  ' "$2" "$3"
}

# The paper report: `kgdual-paper check` reads scale, seed and reps from
# the committed TSV's header, re-runs every experiment in memory (so
# their in-run assertions fire too) and names each drifted cell.
if want deterministic; then
  cargo run --release -q -p kgdual-bench --bin kgdual-paper -- check
fi

# The serving benchmark: re-run bench_serve at the parameters pinned in
# the committed capture and compare the closed regime's deterministic
# totals (every closed-loop request completes, so requests/completed/
# work/rows are exact). Open-overload rejection counts and all latency
# percentiles are timing-dependent and stripped; the re-run re-asserts
# the serve-equivalence contract and the bounded-queue overload
# invariants in-binary.
if want serve; then
  SERVE=docs/baselines/BENCH_serve.json
  [ -f "$SERVE" ] || { echo "missing $SERVE — run scripts/capture_baselines.sh first"; exit 1; }

  serve_scale=$(sed -nE 's/.*"scale": ([0-9.]+).*/\1/p' "$SERVE" | head -1)
  serve_seed=$(sed -nE 's/.*"seed": ([0-9]+).*/\1/p' "$SERVE" | head -1)
  serve_clients=$(sed -nE 's/.*"clients": ([0-9]+).*/\1/p' "$SERVE" | head -1)
  serve_rpc=$(sed -nE 's/.*"requests_per_client": ([0-9]+).*/\1/p' "$SERVE" | head -1)
  serve_threads=$(sed -nE 's/.*"threads": ([0-9]+).*/\1/p' "$SERVE" | head -1)
  serve_shards=$(sed -nE 's/.*"shards": ([0-9]+).*/\1/p' "$SERVE" | head -1)

  fresh_serve=$(mktmp)
  cargo run --release -q -p kgdual-bench --bin bench_serve -- \
    --scale "$serve_scale" --seed "$serve_seed" --clients "$serve_clients" \
    --requests "$serve_rpc" --threads "$serve_threads" --shards "$serve_shards" \
    --assert-equivalence true > "$fresh_serve"

  # Flatten the closed regime into one keyed TSV row (regime/workload key,
  # deterministic columns only) so compare_rows can name what moved.
  serve_rows() {
    {
      printf '# regime\tworkload\trequests\tcompleted\ttotal_work\ttotal_rows\n'
      sed -nE 's/.*"regime": "(closed)", "workload": "([a-z]+)", "requests": ([0-9]+), "completed": ([0-9]+),.*"total_work": ([0-9]+), "total_rows": ([0-9]+).*/\1\t\2\t\3\t\4\t\5\t\6/p' "$1"
    }
  }

  serve_base=$(mktmp)
  serve_fresh_rows=$(mktmp)
  serve_rows "$SERVE" > "$serve_base"
  serve_rows "$fresh_serve" > "$serve_fresh_rows"
  [ "$(grep -c . "$serve_base")" -gt 1 ] || { echo "could not parse closed regime from $SERVE"; exit 1; }

  if compare_rows "$SERVE" "$serve_base" "$serve_fresh_rows"; then
    echo "OK: BENCH_serve deterministic totals unchanged"
  else
    echo
    echo "SERVE DRIFT: closed-regime totals differ from $SERVE (named rows above)."
    echo "If intended, regenerate with scripts/capture_baselines.sh and commit."
    exit 1
  fi
fi

# The EXPLAIN profiles: re-run kgdual-explain at the parameters pinned
# in the committed capture and compare only the deterministic plan
# fields — per query the route and the plan object (operator sequence,
# pattern indices, cost-model estimates), named row by row, plus the
# plan_digest, which additionally covers the profile's deterministic
# actual-rows/work-unit fields. Wall clocks and batch counts in the
# committed profiles are machine-dependent and never compared.
if want explain; then
  EXPLAIN=docs/baselines/explain_profile.json
  [ -f "$EXPLAIN" ] || { echo "missing $EXPLAIN — run scripts/capture_baselines.sh first"; exit 1; }

  ex_scale=$(sed -nE 's/.*"scale": ([0-9.]+).*/\1/p' "$EXPLAIN" | head -1)
  ex_seed=$(sed -nE 's/.*"seed": ([0-9]+).*/\1/p' "$EXPLAIN" | head -1)
  ex_threads=$(sed -nE 's/.*"threads": ([0-9]+).*/\1/p' "$EXPLAIN" | head -1)
  ex_shards=$(sed -nE 's/.*"shards": ([0-9]+).*/\1/p' "$EXPLAIN" | head -1)

  fresh_explain=$(mktmp)
  cargo run --release -q -p kgdual-bench --bin kgdual-explain -- \
    --scale "$ex_scale" --seed "$ex_seed" --threads "$ex_threads" \
    --shards "$ex_shards" > "$fresh_explain" 2>/dev/null

  # One keyed TSV row per query: route + the full plan object (every
  # field of which is deterministic at pinned capture parameters).
  explain_rows() {
    {
      printf '# query\troute\tplan\n'
      sed -nE 's/.*"idx": ([0-9]+), "query": .*"route": "([a-z_]+)", "plan": (\{.*\}), "profile".*/q\1\t\2\t\3/p' "$1"
    }
  }

  explain_base=$(mktmp)
  explain_fresh=$(mktmp)
  explain_rows "$EXPLAIN" > "$explain_base"
  explain_rows "$fresh_explain" > "$explain_fresh"
  [ "$(grep -c . "$explain_base")" -gt 1 ] || { echo "could not parse query plans from $EXPLAIN"; exit 1; }

  base_digest=$(sed -nE 's/.*"plan_digest": "([0-9a-f]+)".*/\1/p' "$EXPLAIN")
  fresh_digest=$(sed -nE 's/.*"plan_digest": "([0-9a-f]+)".*/\1/p' "$fresh_explain")

  if compare_rows "$EXPLAIN" "$explain_base" "$explain_fresh" \
      && [ "$base_digest" = "$fresh_digest" ]; then
    echo "OK: explain plans and plan_digest unchanged"
  else
    [ "$base_digest" = "$fresh_digest" ] || \
      echo "  $EXPLAIN: plan_digest $base_digest -> $fresh_digest (deterministic plan/profile fields drifted)"
    echo
    echo "EXPLAIN DRIFT: deterministic plan fields differ from $EXPLAIN (named rows above)."
    echo "If intended, regenerate with scripts/capture_baselines.sh and commit."
    exit 1
  fi
fi
