#!/bin/sh
# Distributed smoke test: proves the worker fleet end to end, at the
# process level, the way a user runs it.
#
#   1. ccfit-serve starts with a short lease TTL; two ccfit-worker
#      processes register over HTTP and show up in GET /workers.
#   2. A multi-seed fig7a campaign is submitted through `ccfit-run
#      -server`. In its tail, once worker w1 provably holds a lease (its
#      /workers row lists an active job), it is SIGKILLed — no drain, no
#      abandon message, exactly the crash the lease protocol exists for.
#   3. The survivor (default -poll-max) finishes the few cells left and
#      parks on the board; when the sweep reclaims w1's job it must go
#      straight to that parked claim, not wait for a poll.
#   4. The campaign must still complete, /metrics must show at least one
#      reclaimed job and a fleet that parked instead of polling
#      (claims_empty far below leases_granted), and the rendered output
#      must be byte-identical to a plain local `ccfit-run` — a crashed
#      worker costs latency, never bytes.
#   5. The surviving worker is SIGTERMed while parked and must drain
#      gracefully, without a failed claim in its log.
#
# Everything here goes through the public surfaces only: the HTTP API,
# the CLI flags, the handshake lines, signals.
set -e

workdir=$(mktemp -d)
trap 'kill -9 $serve_pid $w1_pid $w2_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir" ./cmd/ccfit-serve ./cmd/ccfit-worker ./cmd/ccfit-run
. "$(dirname "$0")/lib.sh"

# busy reports (exit status) whether the named worker's /workers row
# currently lists an active job ("active" is omitempty, so its presence
# means a held lease).
busy() {
    curl -sf "$url/workers" | awk -v want="\"$1\"," '
        $1 == "\"name\":" && $2 == want { inw = 1 }
        inw && $1 == "\"active\":"      { found = 1 }
        /^  \}/                         { inw = 0 }
        END { exit !found }
    '
}

start_server 127.0.0.1:0 -lease-ttl 2s

echo "== two workers register"
"$workdir/ccfit-worker" -server "$url" -name w1 -cache "$workdir/w1-cache" \
    > "$workdir/w1.log" 2>&1 &
w1_pid=$!
"$workdir/ccfit-worker" -server "$url" -name w2 -cache "$workdir/w2-cache" \
    > "$workdir/w2.log" 2>&1 &
w2_pid=$!
i=0
while [ $i -lt 100 ]; do
    n=$(curl -sf "$url/workers" | grep -c '"name":') || n=0
    [ "$n" -ge 2 ] && break
    sleep 0.2
    i=$((i + 1))
done
if [ "${n:-0}" -lt 2 ]; then
    echo "FAIL: fleet never reached 2 registered workers"
    cat "$workdir/w1.log" "$workdir/w2.log"
    exit 1
fi

echo "== submit campaign, SIGKILL w1 mid-job in the campaign's tail"
"$workdir/ccfit-run" -server "$url" -seeds 8 fig7a > "$workdir/remote.out" &
client_pid=$!
# Let the campaign run down to its last few cells first, so the survivor
# is idle by the time w1's lease expires.
i=0
while [ $i -lt 600 ]; do
    snap=$(curl -sf "$url/metrics") || snap=""
    enqueued=$(echo "$snap" | field jobs_enqueued)
    depth=$(echo "$snap" | field queue_depth)
    if [ "${enqueued:-0}" -gt 0 ] && [ "${depth:-99}" -le 4 ]; then break; fi
    kill -0 "$client_pid" 2>/dev/null || break
    sleep 0.05
    i=$((i + 1))
done
i=0
while [ $i -lt 300 ]; do
    if busy w1; then break; fi
    kill -0 "$client_pid" 2>/dev/null || break
    sleep 0.1
    i=$((i + 1))
done
if ! busy w1; then
    echo "FAIL: w1 never held a lease (campaign too fast or fleet idle)"
    curl -sf "$url/workers" || true
    exit 1
fi
kill -9 "$w1_pid"
wait "$w1_pid" 2>/dev/null || true

echo "== the reclaimed job goes to the parked survivor at the sweep"
# Sample /metrics until the reclaim shows. A survivor that was parked in
# the sample before it is woken by the requeue itself, so the job must
# be off the queue again at once — not at the survivor's next poll,
# which at the default -poll-max would be up to 2 s away.
parked_before=0
i=0
while [ $i -lt 400 ]; do
    snap=$(curl -sf "$url/metrics") || snap=""
    reclaimed=$(echo "$snap" | field jobs_reclaimed)
    if [ "${reclaimed:-0}" -ge 1 ]; then break; fi
    parked_before=$(echo "$snap" | field claims_parked)
    kill -0 "$client_pid" 2>/dev/null || break
    sleep 0.05
    i=$((i + 1))
done
if [ "${parked_before:-0}" -ge 1 ]; then
    sleep 0.1
    queued=$(metric dispatch_queued)
    if [ "${queued:-1}" -ne 0 ]; then
        echo "FAIL: reclaimed job still queued ($queued) 100 ms after the sweep with the survivor parked"
        curl -sf "$url/metrics" || true
        exit 1
    fi
else
    echo "note: survivor still busy when the reclaim landed; prompt re-lease not observable this run"
fi

if ! wait "$client_pid"; then
    echo "FAIL: campaign did not survive the worker crash"
    cat "$workdir/serve.log"
    exit 1
fi

echo "== the fleet parked instead of polling"
# A polling fleet reads about one empty claim per lease; a parked one
# only one per elapsed hold (lease-ttl/3) of idle time.
empty=$(metric claims_empty)
granted=$(metric leases_granted)
if [ -z "$empty" ] || [ $((empty * 2)) -ge "${granted:-0}" ]; then
    echo "FAIL: claims_empty is ${empty:-missing} against leases_granted ${granted:-0}; the fleet is polling"
    exit 1
fi

echo "== crash was reclaimed, bytes are identical to a local run"
reclaimed=$(metric jobs_reclaimed)
if [ "${reclaimed:-0}" -lt 1 ]; then
    echo "FAIL: jobs_reclaimed is ${reclaimed:-0}, want >= 1 after a SIGKILL mid-job"
    curl -sf "$url/metrics" || true
    exit 1
fi
remote_done=$(metric remote_jobs_done)
if [ "${remote_done:-0}" -lt 1 ]; then
    echo "FAIL: remote_jobs_done is ${remote_done:-0}; the fleet never ran anything"
    exit 1
fi
"$workdir/ccfit-run" -seeds 8 fig7a > "$workdir/local.out"
diff "$workdir/local.out" "$workdir/remote.out"

echo "== survivor drains gracefully"
kill -TERM "$w2_pid"
wait "$w2_pid" 2>/dev/null || true
grep -q drained "$workdir/w2.log" || {
    echo "FAIL: surviving worker did not drain"
    cat "$workdir/w2.log"
    exit 1
}
if grep -q "claim failed" "$workdir/w2.log"; then
    echo "FAIL: a worker SIGTERMed while parked logged a failed claim"
    cat "$workdir/w2.log"
    exit 1
fi

echo "distributed smoke: OK (reclaimed=$reclaimed remote_done=$remote_done claims_empty=$empty/$granted leases)"
