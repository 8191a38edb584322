#!/bin/sh
# Partitioned-engine bench smoke: runs BenchmarkPartitionedEngine (the
# 512-node hotspot, build included) and the busy64par coordination
# micro-bench at 1, 2 and 4 workers, three iterations each, and prints
# the workers=2 / workers=1 time ratio of both after the raw lines.
#
# Fails when the host has at least two processors and
# BenchmarkPartitionedEngine at workers=2 is slower than at workers=1:
# a partitioned engine that loses to the serial one went unnoticed from
# PR 7 to PR 12 because nothing compared the two rows. busy64par's ratio
# is reported, not gated — at three iterations it is three cycles long
# and only proves the benchmark still runs.
#
# usage: parallel-bench.sh [logfile]   (appends; default parallel-smoke.log)
set -e

log=${1:-parallel-smoke.log}
out=$(mktemp)
trap 'rm -f "$out"' EXIT

go test . -run '^$' -benchtime=3x -bench 'BenchmarkPartitionedEngine/^workers=(1|2|4)$' | tee "$out"
go test ./internal/sim -run '^$' -benchtime=3x -benchmem \
    -bench 'BenchmarkEngineStep/^busy64(par)?$' | tee -a "$out"

# ratio NAME prints ns/op at workers=2 over ns/op at workers=1.
ratio() {
    awk -v name="$1" '
        $1 ~ name "/workers=1(-[0-9]+)?$" { w1 = $3 }
        $1 ~ name "/workers=2(-[0-9]+)?$" { w2 = $3 }
        END {
            if (w1 == "" || w2 == "" || w1 == 0) { print "missing"; exit }
            printf "%.3f", w2 / w1
        }' "$out"
}

engine=$(ratio BenchmarkPartitionedEngine)
busy=$(ratio BenchmarkEngineStep/busy64par)
cpus=$(getconf _NPROCESSORS_ONLN)
{
    cat "$out"
    echo "workers=2 / workers=1 ns/op on $cpus processors: BenchmarkPartitionedEngine $engine, busy64par $busy"
} >> "$log"
echo "workers=2 / workers=1 ns/op on $cpus processors: BenchmarkPartitionedEngine $engine, busy64par $busy"

if [ "$engine" = missing ]; then
    echo "FAIL: BenchmarkPartitionedEngine printed no workers=1 or workers=2 row"
    exit 1
fi
if [ "$cpus" -ge 2 ] && awk -v r="$engine" 'BEGIN { exit !(r > 1) }'; then
    echo "FAIL: the partitioned engine at 2 workers is slower than at 1 (ratio $engine) on a $cpus-processor host"
    exit 1
fi
