#!/usr/bin/env bash
# Builds the shipped `spring` binary and springbench from source, then
# runs springbench against that binary. Run from anywhere inside a
# spring-rs checkout; every argument is passed to springbench, e.g.
#
#   bash springbench/run.sh --workload wire_m16 --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the root).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/cli || ! -d crates/monitor ]]; then
  echo "springbench: $root is not a spring-rs checkout (crates/cli is missing)" >&2
  exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p spring-cli >&2
cargo build --release --offline --quiet --manifest-path springbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/springbench" --server "$CARGO_TARGET_DIR/release/spring" "$@"
