#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): builds the
# daemons under test from the repository's own workspace and the bench
# from this package, into one target directory, then runs the bench with
# the arguments it was given. Run from anywhere; builds are incremental.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# One target directory for both workspaces, so the bench finds the
# daemons next to itself. The driver presets CARGO_TARGET_DIR.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline -p fedoq-wire --bin fedoq-site --bin fedoq-serve 1>&2
cargo build --release --offline --manifest-path bench_e2e/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
