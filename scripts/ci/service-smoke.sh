#!/bin/sh
# Service smoke test: proves the campaign service end to end, at the
# process level, the way a user runs it.
#
#   1. ccfit-serve starts on an ephemeral port; a fig7a campaign
#      submitted through `ccfit-run -server` must render byte-identical
#      stdout to a plain local `ccfit-run fig7a`.
#   2. Resubmitting the same campaign must be served entirely from the
#      shared result cache (metrics assert zero fresh simulations).
#   3. ccfit-sweep and ccfit-loadcurve render byte-identical tables
#      locally and through -server.
#   4. Kill-and-restart: the server is SIGTERMed mid-campaign (graceful
#      drain), restarted on the same address over the same journal and
#      cache, and the waiting client rides through; the resumed
#      campaign's rendered output must still be byte-identical to the
#      local run.
#
# Everything here goes through the public surfaces only: the HTTP API,
# the CLI flags, the handshake line, SIGTERM.
set -e

workdir=$(mktemp -d)
trap 'kill $serve_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir" ./cmd/ccfit-serve ./cmd/ccfit-run ./cmd/ccfit-sweep ./cmd/ccfit-loadcurve
. "$(dirname "$0")/lib.sh"

start_server 127.0.0.1:0

echo "== remote fig7a matches local run"
"$workdir/ccfit-run" -server "$url" fig7a > "$workdir/remote.out"
"$workdir/ccfit-run" fig7a > "$workdir/local.out"
diff "$workdir/local.out" "$workdir/remote.out"

echo "== duplicate submission is 100% cache hits"
done_before=$(metric jobs_done)
"$workdir/ccfit-run" -server "$url" fig7a > "$workdir/remote2.out"
diff "$workdir/remote.out" "$workdir/remote2.out"
done_after=$(metric jobs_done)
if [ "$done_before" != "$done_after" ]; then
    echo "FAIL: resubmission ran $((done_after - done_before)) fresh simulations, want 0"
    exit 1
fi

echo "== sweep and load curve render the same through the server"
"$workdir/ccfit-sweep" -ms 0.5 -seeds 2 -exp fig7a -param islip > "$workdir/sweep-local.out"
"$workdir/ccfit-sweep" -ms 0.5 -seeds 2 -exp fig7a -param islip -server "$url" > "$workdir/sweep-remote.out"
diff "$workdir/sweep-local.out" "$workdir/sweep-remote.out"
"$workdir/ccfit-loadcurve" -ms 0.5 -schemes 1Q,CCFIT -loads 0.4,0.9 > "$workdir/lc-local.out"
"$workdir/ccfit-loadcurve" -ms 0.5 -schemes 1Q,CCFIT -loads 0.4,0.9 -server "$url" > "$workdir/lc-remote.out"
diff "$workdir/lc-local.out" "$workdir/lc-remote.out"

echo "== kill-and-restart mid-campaign"
# A multi-seed campaign is long enough to interrupt; the client's Wait
# polls through the restart window.
port=${url##*:}
"$workdir/ccfit-run" -server "$url" -seeds 8 fig7a > "$workdir/restart-remote.out" &
client_pid=$!
sleep 1
kill -TERM "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
grep -q drained "$workdir/serve.log" || {
    echo "FAIL: server did not drain gracefully"
    cat "$workdir/serve.log"
    exit 1
}
start_server "127.0.0.1:$port"
resumed=$(metric campaigns_resumed)
if ! wait "$client_pid"; then
    echo "FAIL: client did not ride through the restart"
    cat "$workdir/serve.log"
    exit 1
fi
"$workdir/ccfit-run" -seeds 8 fig7a > "$workdir/restart-local.out"
diff "$workdir/restart-local.out" "$workdir/restart-remote.out"
if [ "${resumed:-0}" = "0" ]; then
    echo "NOTE: campaign finished before the restart window (nothing resumed)"
fi

echo "service smoke: OK"
