#!/usr/bin/env bash
# Offline markdown link checker: every relative link in the repo's
# documentation must point at a file (or directory) that exists in the
# tree. External http(s)/mailto links are skipped — CI is offline by
# design — as are intra-page #anchors; an anchor on an existing file is
# accepted without parsing headings (anchor slugs are renderer-specific).
#
# Usage: tools/check_doc_links.sh [file.md ...]
# With no arguments, checks the root *.md files plus docs/.
set -u

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    files=("$@")
else
    files=()
    for f in ./*.md docs/*.md; do
        [ -f "$f" ] && files+=("$f")
    done
    # The glob silently shrinks if a core doc is deleted or renamed, so
    # pin the set that must always be scanned (and therefore exist).
    # The non-markdown entry is the performance artifact those docs link
    # to (EXPERIMENTS.md trace section): renaming it must fail here, not
    # strand the docs.
    for required in README.md DESIGN.md EXPERIMENTS.md \
        docs/PERFORMANCE.md docs/OBSERVABILITY.md docs/CONTROLPLANE.md \
        docs/BILLING.md results/trace_eval.csv; do
        if [ ! -f "$required" ]; then
            echo "check_doc_links: required file missing -> $required" >&2
            exit 1
        fi
    done
fi

fail=0
for f in "${files[@]}"; do
    dir=$(dirname "$f")
    # Inline markdown links: [text](target). Reference-style definitions
    # ("[label]: target") are rare here and intentionally out of scope.
    while IFS=: read -r line target; do
        [ -n "$target" ] || continue
        case "$target" in
            http://*|https://*|mailto:*) continue ;;
            '#'*) continue ;;
        esac
        path=${target%%#*}
        case "$path" in
            /*) resolved=".$path" ;;           # repo-absolute
            *)  resolved="$dir/$path" ;;
        esac
        if [ ! -e "$resolved" ]; then
            echo "$f:$line: broken link -> $target" >&2
            fail=1
        fi
    done < <(grep -no -E '\]\([^)]+\)' "$f" \
             | sed -E 's/^([0-9]+):\]\(([^)]*)\)$/\1:\2/' \
             | sed -E 's/ "[^"]*"$//')
done

if [ "$fail" -ne 0 ]; then
    echo "check_doc_links: broken relative links found" >&2
    exit 1
fi
echo "check_doc_links: OK (${#files[@]} files)"
