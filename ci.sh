#!/usr/bin/env bash
# The full local CI gate: formatting, lints, release build, tests, docs,
# and (with --quick) a bench smoke run compared against BENCH_SMOKE.json.
# Usage: ./ci.sh [--quick] [--miri]
#   --quick   additionally run every benchmark for one calibrated ~2 ms
#             batch (SPRING_BENCH_SMOKE=1), compare the results warn-only
#             against the committed BENCH_SMOKE.json baseline, and
#             assemble them into target/bench-smoke/BENCH_SMOKE.json —
#             "do the benches still run?", not a performance measurement.
#             The committed baseline is never rewritten here; see
#             CONTRIBUTING.md for refreshing it deliberately.
#   --miri    additionally run the kernel + snapshot tests under Miri:
#             they cover spring-core's only unsafe code, the SSE2/AVX2
#             min-select (needs a nightly toolchain with the miri
#             component; the stage is skipped with a warning when
#             none is installed, since the hosted `miri` CI job always
#             runs it).
set -euo pipefail
cd "$(dirname "$0")"

quick=0
miri=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --miri) miri=1 ;;
    *) echo "unknown flag: $arg (usage: ./ci.sh [--quick] [--miri])" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (failpoints feature)"
cargo clippy --workspace --all-targets \
  --features spring-testkit/failpoints,spring-cli/failpoints \
  -- -D warnings

echo "==> feature unification (the tested build is the shipped build)"
# The workspace build (what `cargo test` runs) and `-p spring-cli` (what
# users and springbench build) must compile spring-monitor with the
# same features; `--depth 0 -f '{f}'` prints just that feature list.
monitor_features() { cargo tree --offline -e features -i spring-monitor --depth 0 -f '{f}' "$@"; }
diff <(monitor_features) <(monitor_features -p spring-cli)

echo "==> cargo build --release"
cargo build --release

echo "==> 62-channel runs (Fig. 9 mocap output pinned byte for byte)"
# The only runs of the 62-channel workload; mocap_gestures also drives
# VectorEngine. Both are deterministic.
diff tests/fixtures/mocap_gestures.stdout <(cargo run --release -q --example mocap_gestures)
diff tests/fixtures/fig9_mocap.stdout <(cargo run --release -q -p spring-bench --bin fig9_mocap)

echo "==> cargo check springbench (the frozen benchmark builds against this API)"
cargo check --offline --all-targets --manifest-path springbench/Cargo.toml

echo "==> cargo test springbench (its verifier and engine replay)"
cargo test --offline --release --manifest-path springbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test (failpoints: fault injection and postmortems)"
# Includes the worker-loss postmortem acceptance test
# (crates/monitor/tests/postmortem.rs).
cargo test -q -p spring-testkit -p spring-monitor -p spring-cli \
  --features spring-testkit/failpoints,spring-cli/failpoints

echo "==> differential fuzz (every variant x bare/engine/runner)"
# CI sets SPRING_FUZZ_SEED to a varying value (e.g. the run id) so the
# hosted gate explores new scenarios on every run; locally the fixed
# fallback keeps the gate deterministic. Failures print a replay line.
fuzz_seed="${SPRING_FUZZ_SEED:-1592642302}"   # 0x5EED_CAFE, the default seed
cargo run --release -q -p spring-cli -- fuzz --seed "$fuzz_seed" --iters 500

echo "==> hot-swap differential fuzz (runner swap vs prefix/suffix oracle)"
cargo run --release -q -p spring-cli -- fuzz --swap --seed "$fuzz_seed" --iters 100

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [ "$miri" -eq 1 ]; then
  echo "==> miri (kernel + snapshot tests)"
  # Pinned seed so local runs match the hosted job's default layout
  # randomization; the hosted job also varies it across runs.
  if rustup run nightly cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-seed=2007}" \
      rustup run nightly cargo miri test -p spring-core --lib -- kernel snapshot
    # The reactor carries spring-monitor's only unsafe code (the raw
    # syscall shims); socket-driving tests are `#[cfg_attr(miri,
    # ignore)]`, so this interprets the pure reactor logic and keeps the
    # unsafe module inside Miri's build graph.
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-seed=2007}" \
      rustup run nightly cargo miri test -p spring-monitor --lib -- reactor
    # The trace rings are lock-free (seqlock-style slots, atomic
    # tickets); Miri checks the concurrent-writer test for data races
    # and torn reads at reduced iteration counts.
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-seed=2007}" \
      rustup run nightly cargo miri test -p spring-monitor --lib -- trace
  else
    echo "WARN: miri unavailable (install with:" \
         "rustup toolchain install nightly --component miri); skipping" >&2
  fi
fi

if [ "$quick" -eq 1 ]; then
  echo "==> bench smoke (one calibrated iteration per benchmark)"
  jsonl="$(mktemp)"
  trap 'rm -f "$jsonl"' EXIT
  # The bench list is derived from the crate itself so a new benchmark
  # can't silently miss the smoke gate.
  for src in crates/bench/benches/*.rs; do
    b="$(basename "$src" .rs)"
    echo "--> cargo bench --bench $b (smoke)"
    before="$(wc -l < "$jsonl" 2>/dev/null || echo 0)"
    SPRING_BENCH_SMOKE=1 SPRING_BENCH_JSON="$jsonl" \
      cargo bench -p spring-bench --bench "$b" --quiet
    after="$(wc -l < "$jsonl")"
    if [ "$after" -le "$before" ]; then
      echo "ERROR: bench $b emitted no JSON result line" \
           "(is it registered in crates/bench/Cargo.toml and reporting" \
           "through the smoke harness?)" >&2
      exit 1
    fi
  done
  # Regression tripwire: compare against the committed BENCH_SMOKE.json
  # baseline. Smoke timings are a single calibrated batch on whatever
  # machine this is, so locally the shared comparison script runs
  # warn-only — it flags "look at this", it does not fail the gate. The
  # hosted bench-compare job enforces the same thresholds against the
  # PR's merge-base for real.
  if [ -f BENCH_SMOKE.json ]; then
    scripts/bench_compare.sh --warn-only BENCH_SMOKE.json "$jsonl"
  fi
  # Assemble the JSON-lines file into a single JSON document under
  # target/, so one noisy batch never becomes the next baseline.
  smoke_out="target/bench-smoke/BENCH_SMOKE.json"
  mkdir -p "$(dirname "$smoke_out")"
  {
    printf '{\n  "mode": "smoke",\n  "results": [\n'
    awk 'NR>1 { printf ",\n" } { printf "    %s", $0 }' "$jsonl"
    printf '\n  ]\n}\n'
  } > "$smoke_out"
  count="$(wc -l < "$jsonl")"
  echo "wrote $smoke_out ($count results; BENCH_SMOKE.json is unchanged)"
fi

echo "CI gate passed."
