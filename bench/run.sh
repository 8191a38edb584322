#!/usr/bin/env bash
# Entry point of the benchmark (the `command` of ../BENCHMARK.json):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark driver and runs it from the repo root. Everything
# the Go toolchain and the benchmark write - build cache, temp files,
# binaries, traces - is confined to <repo>/.bench_build, so a run reads
# and writes only inside its checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # go env file and telemetry counters
export GOTOOLCHAIN=local                # never fetch another toolchain

(cd "$here" && go build -o "$build/ccfit-bench" .)
cd "$root"
exec "$build/ccfit-bench" "$@"
