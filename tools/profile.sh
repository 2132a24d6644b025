#!/usr/bin/env bash
# Where the node_sim loop (or, with `fs`, the node_fs loop) spends its CPU
# time, by sampling.
#
#   tools/profile.sh [fs] [SAMPLES]
#
# Builds and runs crates/bench/examples/host_profile.rs (release, 20 s of
# the loop under SIGPROF, x86_64 Linux only; `fs` builds its fixture tree
# on /dev/shm when there is one) and prints the samples' shares:
#   - by function: the innermost frame addr2line -i names, i.e. inlined
#     code counts where it was written, not where it was inlined;
#   - by function, inclusive: every frame of the inline chain, once per
#     sample (a non-inlined callee's samples stay with the callee);
#   - by source line, innermost frame;
#   - by object, for samples outside the executable (libm, libc, vdso);
#   - with `fs`, libc's samples by the nearest dynamic symbol at or below
#     them (`nm -D`): a system call's time shows in its wrapper.
# With SAMPLES, the raw `OBJECT OFFSET` lines are also kept in that file.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-$root/target}"
top=25

mode=""
if [ "${1:-}" = fs ]; then
    mode=fs
    shift
fi

cargo build --release --locked --quiet -p vfc-bench --example host_profile
exe="$target/release/examples/host_profile"
raw="${1:-}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
[ -n "$raw" ] || raw="$tmp/samples"
if [ "$mode" = fs ]; then
    # The tree on tmpfs, as cgroupfs is in memory.
    shm="${TMPDIR:-/tmp}"
    [ -d /dev/shm ] && [ -w /dev/shm ] && shm=/dev/shm
    TMPDIR="$shm" "$exe" fs > "$raw"
else
    "$exe" > "$raw"
fi

total=$(wc -l < "$raw")
if [ "$total" -eq 0 ]; then
    echo "no samples"
    exit 0
fi
exe_real="$(readlink -f "$exe")"

# Unique executable offsets with their counts, in the order addr2line
# will answer them.
awk -v exe="$exe_real" '$1 == exe { n[$2]++ } END { for (a in n) print n[a], a }' "$raw" \
    > "$tmp/counts"
cut -d' ' -f2 "$tmp/counts" \
    | addr2line -i -f -C -a -e "$exe_real" \
    | sed -E -e 's/::h[0-9a-f]{16}$//' -e "s#^$root/##" -e 's#^/.*/library/#std:#' \
    > "$tmp/frames"

# One record per sample address: count, then (function, line) pairs from
# the innermost frame out.
awk -v total="$total" -v top="$top" -v out="$tmp" '
    NR == FNR { count[NR] = $1; next }
    /^0x[0-9a-f]+$/ { addr++; depth = 0; next }
    {
        if (depth % 2 == 0) { fn = $0 }
        else {
            c = count[addr]
            if (depth == 1) { self_fn[fn] += c; line[$0 "  " fn] += c }
            key = addr SUBSEP fn
            if (!(key in seen)) { seen[key] = 1; incl[fn] += c }
        }
        depth++
    }
    END {
        for (f in self_fn) print self_fn[f], f > (out "/self")
        for (f in incl) print incl[f], f > (out "/incl")
        for (l in line) print line[l], l > (out "/lines")
    }
' "$tmp/counts" "$tmp/frames"

inside=$(awk '{ s += $1 } END { print s + 0 }' "$tmp/counts")
report() {
    echo
    echo "$1"
    sort -k1,1nr "$2" | head -n "$top" \
        | awk -v total="$total" '{ n = $1; $1 = ""; printf "%6.1f %%  %6d %s\n", 100 * n / total, n, $0 }'
}
echo "$total samples, $inside in the executable"
report "By function (innermost frame):" "$tmp/self"
report "By function, inclusive of inlined callers:" "$tmp/incl"
report "By source line (innermost frame):" "$tmp/lines"
echo
echo "Outside the executable, by object:"
awk -v exe="$exe_real" '$1 != exe { n[$1]++ } END { for (o in n) print n[o], o }' "$raw" \
    | sort -k1,1nr \
    | awk -v total="$total" '{ printf "%6.1f %%  %6d %s\n", 100 * $1 / total, $1, $2 }'

[ "$mode" = fs ] || exit 0
libc="$(awk '$1 ~ /\/libc[.-][^\/]*so/ { print $1; exit }' "$raw")"
[ -n "$libc" ] || exit 0
echo
echo "Inside $libc, by nearest dynamic symbol:"
# Symbols and samples as 16-digit hex strings, sorted together: each
# sample takes the last symbol at or below it (the shortest of the names
# that share an address).
{
    nm -D --defined-only "$libc" \
        | awk '$2 ~ /^[TtWwi]$/ { sub(/@.*/, "", $3); print $1, 0, $3 }'
    awk -v lib="$libc" '$1 == lib {
        hex = substr($2, 3)
        while (length(hex) < 16) hex = "0" hex
        print hex, 1
    }' "$raw"
} | LC_ALL=C sort -k1,1 -k2,2n \
    | awk -v total="$total" '
        $2 == 0 {
            if ($1 != at || length($3) < length(sym)) sym = $3
            at = $1
            next
        }
        { n[sym == "" ? "?" : sym]++ }
        END { for (s in n) printf "%6.1f %%  %6d %s\n", 100 * n[s] / total, n[s], s }
    ' \
    | sort -k3,3nr | head -n "$top"
