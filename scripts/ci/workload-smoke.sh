#!/bin/sh
# Workload smoke test: proves the datacenter axis end to end, at the
# process level, the way a user runs it.
#
#   1. The xleafincast experiment (open-loop CDF traffic on the
#      leaf-spine fabric) renders FCT slowdown tables — the sanity
#      grep fails if the finite-flow path silently stopped registering.
#   2. Remote identity: the same campaign submitted through a real
#      ccfit-serve instance must render byte-identical stdout, FCT
#      tables included.
#   3. Fault replay: `ccfit-run sim` under scripts/faults/flap-drop-degrade.json
#      (three drop-policy flaps, one under a degrade) must print the
#      committed CSV byte for byte — the only process-level run that
#      reaches the refund of a dropped packet's credit, which has to
#      restart whatever input port or end node was waiting for it.
#      go test makes the same check in-process (internal/cli TestSimGolden).
#
# Everything here goes through the public surfaces only: the CLI flags,
# the HTTP API, stdout.
set -e

workdir=$(mktemp -d)
trap 'kill $serve_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir" ./cmd/ccfit-serve ./cmd/ccfit-run
. "$(dirname "$0")/lib.sh"

echo "== xleafincast renders FCT slowdown tables"
"$workdir/ccfit-run" -ms 1 xleafincast > "$workdir/serial.out"
grep -q "FCT slowdown" "$workdir/serial.out" || {
    echo "FAIL: no FCT table in xleafincast output"
    cat "$workdir/serial.out"
    exit 1
}
grep -q "flows completed" "$workdir/serial.out" || {
    echo "FAIL: no completion counts in xleafincast output"
    exit 1
}

echo "== remote campaign output is byte-identical to local"
start_server 127.0.0.1:0
"$workdir/ccfit-run" -server "$url" -ms 1 xleafincast > "$workdir/remote.out"
diff "$workdir/serial.out" "$workdir/remote.out"

echo "== drop-policy flaps replay to the committed output"
"$workdir/ccfit-run" sim -config 1 -ms 6 -faults scripts/faults/flap-drop-degrade.json \
    > "$workdir/faults.csv" 2> "$workdir/faults.err" || { cat "$workdir/faults.err"; exit 1; }
cmp "$workdir/faults.csv" "$(dirname "$0")/testdata/flap-drop-degrade.csv"

echo "workload smoke: OK"
