#!/usr/bin/env bash
# Compares two result files, or two builds.
#
#   benchmark/compare.sh A.json B.json
#       one row per (end-to-end metric, workload): both values, the ratio and
#       its base, the bound, and better / worse / unchanged / unresolved.
#       Exits non-zero on any `worse` or on a higher error ratio. Files of a
#       `--quick` suite are refused.
#   benchmark/compare.sh --pairs N DIR_A DIR_B [--seed S]
#       N alternating runs of every workload in two checkouts (A the parent,
#       B the change), then each side's median and quartiles and the verdict
#       of the paired-run rule.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# One target directory for every build, inside the checkout; a relative
# CARGO_TARGET_DIR counts from the root of the checkout.
target="$(cd "$root" && realpath -m "${CARGO_TARGET_DIR:-.bench_build}")"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
harness="$target/release/harness"

if [ "${1:-}" != "--pairs" ]; then
  exec "$harness" compare "$@"
fi

pairs="$2"; dir_a="$(cd "$3" && pwd)"; dir_b="$(cd "$4" && pwd)"
seed=2011
if [ "${5:-}" = "--seed" ]; then seed="$6"; fi
runs="$target/pairs-$$.tsv"
: > "$runs"
one() { # tag checkout workload seed
  local line
  line="$(cd "$2" && env -u CARGO_TARGET_DIR benchmark/run.sh --workload "$3" --seed "$4" --trace 0 | tail -n 1)"
  printf '%s\t%s\t%s\n' "$1" "$3" "$line" >> "$runs"
}
for i in $(seq 1 "$pairs"); do
  for w in search_cold browse_warm ingest_mixed sharded_cold; do
    # Alternate which side runs first.
    if [ $((i % 2)) -eq 1 ]; then
      one A "$dir_a" "$w" $((seed + i)); one B "$dir_b" "$w" $((seed + i))
    else
      one B "$dir_b" "$w" $((seed + i)); one A "$dir_a" "$w" $((seed + i))
    fi
  done
done
"$harness" pairs "$runs"
rm -f "$runs"
