#!/usr/bin/env bash
# Builds the benchmark offline, runs the whole suite twice (sets A and B)
# with the same code and seed, and compares the two sets metric by metric.
#
# Fails when an end-to-end metric of the two sets differs by more than its
# bound, when an exact metric (a virtual-time result or a count) differs at
# all, when an operation failed its check, or when building and running
# changed a file outside BENCHMARK.json and benchmark/.
#
#   benchmark/check.sh [--seed <n>] [--seconds <s>]
#
# It must pass with any seed; try a second one before trusting a change.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/cb-benchmark"

# Three plain passes per workload and set, compared by their medians: on a
# host whose speed drifts in phases of many seconds, single passes of the
# same code can differ by more than the bound.
"$bin" "$@" --plain-runs 3 --results benchmark/out/results_A.json
"$bin" "$@" --plain-runs 3 --results benchmark/out/results_B.json
"$bin" --compare benchmark/out/results_A.json benchmark/out/results_B.json

if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    stray="$(git -C "$root" status --porcelain | grep -Ev '^.. "?(BENCHMARK\.json|benchmark/|\.gitignore|CHANGES\.md|ISSUE\.md|REVIEW\.md)' || true)"
    if [ -n "$stray" ]; then
        echo "check.sh: files outside BENCHMARK.json and benchmark/ changed:" >&2
        echo "$stray" >&2
        exit 1
    fi
fi
echo "check.sh: OK"
