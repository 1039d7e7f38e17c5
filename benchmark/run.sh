#!/usr/bin/env bash
# Build the benchmark in release and run it.  With --workload this is the
# single run the driver calls; without, the whole suite.  See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/mutls-benchmark" "$@"
