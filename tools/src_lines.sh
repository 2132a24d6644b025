#!/usr/bin/env bash
# First-party non-test lines under crates/*/src, per crate and in total: every
# line of a `.rs` file up to its first column-0 `#[cfg(test)]` (blank lines
# and comments included). The count the CHANGES entries quote for "non-test
# lines"; it is printed, not gated.
#
# Usage: tools/src_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | sort | xargs awk '
FNR == 1 {
    split(FILENAME, part, "/")
    if (part[2] != crate) order[++n] = part[2]
    crate = part[2]
    in_test = 0
}
/^#\[cfg\(test\)\]/ { in_test = 1 }
!in_test { lines[crate]++; total++ }
END {
    for (i = 1; i <= n; i++) printf "%-12s %6d\n", order[i], lines[order[i]]
    printf "%-12s %6d\n", "total", total
}'
