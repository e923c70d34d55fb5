#!/usr/bin/env bash
# Builds the release `sensormeta` binary and the harness, then runs the
# benchmark against a child `sensormeta serve` process over loopback TCP.
#
#   benchmark/run.sh [--seed N] [--quick]
#       all four workloads, each with the traced in-process pass; prints
#       every metric and writes benchmark/results/latest.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result as JSON
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for every build, inside the checkout; a relative
# CARGO_TARGET_DIR counts from the root of the checkout.
target="$(cd "$root" && realpath -m "${CARGO_TARGET_DIR:-.bench_build}")"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin sensormeta >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

common=(--server-bin "$target/release/sensormeta" --work-dir "$target/work" --results-dir "$here/results")
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$target/release/harness" run "$@" "${common[@]}"
  fi
done
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/harness" suite "$@" --commit "$commit" "${common[@]}"
