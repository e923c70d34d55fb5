#!/usr/bin/env bash
# The acceptance procedure behind results/baseline-2core.json: SETS sets of
# ten runs per workload, each run on another seed, untraced; then a traced
# suite; then the summary (median, quartiles and spread of every end-to-end
# metric on every workload, per set).
#
#   benchmark/accept.sh [SETS] [OUT.json]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
sets="${1:-2}"
out="${2:-$here/results/baseline-2core.json}"
# One target directory for every build, inside the checkout; a relative
# CARGO_TARGET_DIR counts from the root of the checkout.
target="$(cd "$root" && realpath -m "${CARGO_TARGET_DIR:-.bench_build}")"
export CARGO_TARGET_DIR="$target"
mkdir -p "$target"
runs="$target/acceptance-runs.tsv"
: > "$runs"
for set in $(seq 1 "$sets"); do
  for w in search_cold browse_warm ingest_mixed sharded_cold; do
    for seed in $(seq 1 10); do
      line="$("$here/run.sh" --workload "$w" --seed "$seed" --trace 0 | tail -n 1)"
      printf 'set%s\t%s\t%s\n' "$set" "$w" "$line" >> "$runs"
      echo "set $set $w seed $seed done" >&2
    done
  done
done
"$here/run.sh" >&2
"$target/release/harness" summarize "$runs" --layers "$here/results/latest.json" --out "$out"
