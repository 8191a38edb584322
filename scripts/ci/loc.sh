#!/bin/sh
# Prints the non-test Go line count ROADMAP.md quotes for each PR, then
# the same count per package directory. A report, not a gate: the number
# is how a simplicity PR shows it removed code rather than moved it.
# Run from the repo root; bench/ (the benchmark's own module) and
# testdata are excluded.
set -e

files() {
    find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*'
}

echo "non-test Go lines: $(files | xargs cat | wc -l)"
files | while read -r f; do
    echo "$(dirname "$f") $(wc -l < "$f")"
done | awk '{ n[$1] += $2 } END { for (d in n) printf "%7d  %s\n", n[d], d }' | sort -k2
