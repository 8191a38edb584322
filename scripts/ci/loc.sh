#!/bin/sh
# Prints the non-test Go line count ROADMAP.md quotes for each PR, then
# the same count per package directory, and fails when the total exceeds
# the ceiling committed in scripts/ci/loc.max. The ceiling is a ratchet:
# a PR lowers it freely (set it to what this script prints) and raises
# it only with the reason in its CHANGES.md entry — the number is how a
# simplicity PR shows it removed code rather than moved it, and how a
# feature PR shows what it cost. Run from the repo root; bench/ (the
# benchmark's own module) and testdata are excluded.
set -e

files() {
    find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*'
}

total=$(files | xargs cat | wc -l)
echo "non-test Go lines: $total"
files | while read -r f; do
    echo "$(dirname "$f") $(wc -l < "$f")"
done | awk '{ n[$1] += $2 } END { for (d in n) printf "%7d  %s\n", n[d], d }' | sort -k2

max=$(cat scripts/ci/loc.max)
if [ "$total" -gt "$max" ]; then
    echo "FAIL line-count ratchet: $total non-test lines, ceiling $max (scripts/ci/loc.max)" >&2
    exit 1
fi
echo "line-count ratchet: $total <= $max"
