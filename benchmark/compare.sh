#!/usr/bin/env bash
# compare.sh A.json B.json — is B worse than A beyond the bounds of
# BENCHMARK.json? Exit 1 on a regression or on more failures. See README.md
# for how to produce A and B (ten alternating pairs for a claim).
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" compare "$@"
