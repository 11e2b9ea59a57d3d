#!/usr/bin/env bash
# Build the benchmark from source, then run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--seconds S] [--runs R] [--out F]   every workload
#   benchmark/run.sh --smoke                                         checks only
#   benchmark/run.sh compare A.json B.json
#
# With the first three, --data-seed D generates another dataset.
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target;
# nothing is read or written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
# Build output goes to stderr: the last line of stdout is the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$target/release/bench" "$@"
