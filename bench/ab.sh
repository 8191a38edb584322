#!/usr/bin/env bash
# Interleaved A/B of one workload between a base ref and the working tree:
#
#   bench/ab.sh <base-ref> <workload> [pairs=10] [seed=1]
#
# The base ref is exported (git archive) into a throw-away directory
# under $TMPDIR and only its CLIs are built from it; the benchmark code is the
# working tree's on both sides, so the two sides differ in the program
# under test and nothing else. Each pair runs both sides once, the order
# flipping every pair, and `compare` then prints each side's median, the
# new side's quartiles, pairs won and the verdict per end-to-end metric.
# A gain may be claimed only when the change wins at least nine tenths of
# the pairs and the medians differ by more than the base's own spread.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: bench/ab.sh <base-ref> <workload> [pairs=10] [seed=1]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=${3:-10} seed=${4:-1}

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ccfit-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then order="base head"; else order="head base"; fi
	for side in $order; do
		if [ "$side" = base ]; then from="$tmp/base"; else from="$root"; fi
		echo "pair $i/$pairs: $side" >&2
		bash "$here/run.sh" -root "$from" --workload "$workload" --seed "$seed" --trace 0 -out "$tmp/$side.json" >/dev/null
	done
done

bash "$here/run.sh" compare "$tmp/base.json" "$tmp/head.json"
