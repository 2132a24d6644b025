#!/usr/bin/env bash
# Build the benchmark harness (release, offline) and run it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1 [--smoke]
#       one workload in this process; the last line of standard output is
#       the result object (this is the command BENCHMARK.json names)
#   run.sh [--seed N] [--seconds S] [--smoke] [--out FILE] [--append]
#       every workload, end-to-end then traced, each in its own process;
#       writes benchmark/out/results.json
#   run.sh suite --workload W [...]   the same for one workload
#   run.sh compare A.json B.json      (also: compare.sh)
#
# See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export VFC_BENCH_DIR="$here"

# The driver names the target directory relative to the checkout root.
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# A plain checkout has no .git; never climb out of it looking for one.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
VFC_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export VFC_BENCH_COMMIT

# glibc adapts, at run time, when it hands freed memory back to the kernel
# and when it maps fresh pages for a large allocation; a set-up of 1 ms
# takes 1.5 ms in the runs where it does (README, "Machine"). Fixed
# thresholds: memory a rep frees stays with the process, on every commit.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=1073741824

# Build chatter goes to stderr: standard output belongs to the results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin="$target/release/vfc-benchmark"
case "${1:-}" in
    suite | compare) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
exec "$bin" suite "$@"
