#!/usr/bin/env bash
# Compares two bench-smoke result sets and gates on regressions.
#
# Usage: scripts/bench_compare.sh [--warn-only] [--out FILE] BASE HEAD
#
# BASE and HEAD are bench result files in either format the harness
# produces: an assembled BENCH_SMOKE.json document or a raw JSON-lines
# file written via SPRING_BENCH_JSON. Every result is one record with
# "name" and "secs_per_iter".
#
# Only the *tracked* bench families gate the comparison — the rows of
# the per_tick, batch_ingest and kernel_throughput benches, the three
# that measure the monitor hot path. The batch_ingest bench names its
# rows batch_ingest_engine/…, batch_ingest_runner_w1/… and
# batch_ingest_runner_w4/…, so its family is batch_ingest_<suffix>/. A tracked bench slower by more than FAIL_PCT fails
# (exit 1); slower by more than WARN_PCT warns. Everything else is
# reported as context. Smoke timings are a single calibrated batch, so
# the thresholds are deliberately loose: 35% trips on real regressions
# (a 2x slowdown is unmissable), not on machine noise.
#
# --warn-only   never exit nonzero on regressions (the local ./ci.sh
#               mode: flag "look at this", don't block the gate)
# --out FILE    also write the comparison table to FILE (CI artifact)
set -euo pipefail

FAIL_PCT="${BENCH_COMPARE_FAIL_PCT:-35}"
WARN_PCT="${BENCH_COMPARE_WARN_PCT:-25}"
TRACKED='^(per_tick|batch_ingest_[a-z0-9_]+|kernel_throughput)/'

warn_only=0
out=""
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --warn-only) warn_only=1 ;;
    --out)
      [ $# -ge 2 ] || { echo "--out needs a file argument" >&2; exit 2; }
      out="$2"; shift ;;
    -*) echo "unknown flag: $1" >&2; exit 2 ;;
    *) args+=("$1") ;;
  esac
  shift
done
if [ "${#args[@]}" -ne 2 ]; then
  echo "usage: $0 [--warn-only] [--out FILE] BASE HEAD" >&2
  exit 2
fi
base="${args[0]}"
head="${args[1]}"
for f in "$base" "$head"; do
  [ -f "$f" ] || { echo "no such file: $f" >&2; exit 2; }
done

# Pulls (name, secs_per_iter) pairs out of either supported format.
extract() {
  awk '/"name":"/ {
    name = $0; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
    secs = $0; sub(/.*"secs_per_iter":/, "", secs); sub(/[,}].*/, "", secs)
    print name, secs
  }' "$1"
}

tmp_base="$(mktemp)"
tmp_head="$(mktemp)"
trap 'rm -f "$tmp_base" "$tmp_head"' EXIT
extract "$base" > "$tmp_base"
extract "$head" > "$tmp_head"
if [ ! -s "$tmp_head" ]; then
  echo "ERROR: no bench results found in $head" >&2
  exit 2
fi

report="$(awk -v tracked="$TRACKED" -v fail="$FAIL_PCT" -v warn="$WARN_PCT" '
  NR == FNR { basev[$1] = $2; next }
  {
    seen[$1] = 1
    if (!($1 in basev)) { printf "new      %-44s %24s %11.4g\n", $1, "-", $2; next }
    if (basev[$1] + 0 <= 0) next
    delta = ($2 / basev[$1] - 1) * 100
    status = ($1 ~ tracked) ? "ok" : "info"
    if ($1 ~ tracked && delta > fail) { status = "FAIL"; fails++ }
    else if ($1 ~ tracked && delta > warn) { status = "warn"; warns++ }
    printf "%-8s %-44s %11.4g %11.4g  %+7.1f%%\n", status, $1, basev[$1], $2, delta
  }
  END {
    for (n in basev) if (!(n in seen))
      printf "gone     %-44s %11.4g %24s\n", n, basev[n], "-"
    printf "summary: %d tracked FAIL (>%s%%), %d tracked warn (>%s%%)\n", \
           fails + 0, fail, warns + 0, warn
  }' "$tmp_base" "$tmp_head")"

header="$(printf '%-8s %-44s %11s %11s %9s' status bench base head delta)"
full="bench comparison: base=$base head=$head
$header
$report"
echo "$full"
if [ -n "$out" ]; then
  echo "$full" > "$out"
fi

if echo "$report" | grep -q '^FAIL'; then
  if [ "$warn_only" -eq 1 ]; then
    echo "WARN-ONLY mode: regressions above ${FAIL_PCT}% reported, not enforced"
    exit 0
  fi
  echo "ERROR: tracked bench regressed more than ${FAIL_PCT}% vs base" >&2
  exit 1
fi
