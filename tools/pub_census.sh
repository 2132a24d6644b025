#!/usr/bin/env bash
# Name-level census of the public functions of crates/*/src, so that public
# surface nothing uses gets found and deleted: which `pub fn` names does
# nothing else name, and which are named only by tests, benches and examples?
# A `pub` item only a test calls is either that test's helper or a deletion.
#
# A *use* is the name as a whole word on a line that is not a comment and
# not an `fn <name>` definition. It is a test use when the line is under
# tests/, benches/ or examples/, or follows a file's first column-0
# `#[cfg(test)]`; any other use — another module, the root package, the
# stand-alone benchmark/ harness — is a product use. By name, not by path:
# two `pub fn new` are one name, so a reported name is safe to act on and an
# unreported one is not proven used.
#
# Usage: tools/pub_census.sh [-q]     (-q: the three counts only)
set -euo pipefail
cd "$(dirname "$0")/.."

quiet=0
[ "${1:-}" = "-q" ] && quiet=1

# Definitions first (crates/*/src), then every file that can name them.
mapfile -t defs < <(find crates/*/src -name '*.rs' | sort)
mapfile -t uses < <(find crates src tests examples benchmark/src -name '*.rs' | sort)

awk -v quiet="$quiet" -v ndefs="${#defs[@]}" '
FNR == 1 {
    file++
    in_test = (FILENAME ~ /(^|\/)(tests|benches|examples)\//)
}
/^#\[cfg\(test\)\]/ { in_test = 1 }
/^[ \t]*\/\// { next }
file <= ndefs {
    # Pass 1: `pub fn` names outside test code, with where they were seen.
    if (!in_test && match($0, /(^|[ \t])pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z_0-9]*/)) {
        name = substr($0, RSTART, RLENGTH)
        sub(/.*fn /, "", name)
        if (!(name in where)) where[name] = FILENAME ":" FNR
    }
    next
}
{
    # Pass 2: every identifier on the line that is a census name.
    line = $0
    prev = ""
    while (match(line, /[A-Za-z_][A-Za-z_0-9]*/)) {
        word = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        defined_here = (prev == "fn")
        prev = word
        if (!(word in where) || defined_here) continue
        if (in_test) test_uses[word]++; else product_uses[word]++
    }
}
END {
    for (name in where) {
        total++
        if (name in product_uses) continue
        if (name in test_uses) { only_tests++; t[only_tests] = where[name] "  " name }
        else { nowhere++; n[nowhere] = where[name] "  " name }
    }
    if (!quiet) {
        print "# named nowhere else"
        for (i = 1; i <= nowhere; i++) print n[i] | "sort"
        close("sort")
        print "# named only under tests/, benches/, examples/ or #[cfg(test)]"
        for (i = 1; i <= only_tests; i++) print t[i] | "sort"
        close("sort")
    }
    printf "pub fn names: %d; named nowhere else: %d; named only by tests: %d\n", \
        total, nowhere, only_tests
}
' "${defs[@]}" "${uses[@]}"
