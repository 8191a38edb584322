# Shared by the smoke scripts (service-, workload-, distributed-smoke):
# source it after setting $workdir and building the binaries into it.
#
#   start_server ADDR [ccfit-serve flags...]   launch ccfit-serve on ADDR
#       over $workdir/state, wait for its handshake line, and set $url
#       and $serve_pid (exits the script if the server never comes up)
#   metric NAME                                one counter of GET /metrics
#   field NAME                                 the same, from a /metrics body on stdin

start_server() {
    addr=$1
    shift
    : > "$workdir/serve.log"
    "$workdir/ccfit-serve" -addr "$addr" -data "$workdir/state" -workers 4 "$@" \
        > "$workdir/serve.log" 2>&1 &
    serve_pid=$!
    url=""
    i=0
    while [ $i -lt 100 ]; do
        url=$(sed -n 's/^ccfit-serve: listening on //p' "$workdir/serve.log")
        [ -n "$url" ] && return 0
        kill -0 "$serve_pid" 2>/dev/null || break
        sleep 0.2
        i=$((i + 1))
    done
    echo "FAIL: ccfit-serve did not come up"
    cat "$workdir/serve.log"
    exit 1
}

field() {
    sed -n "s/^ *\"$1\": \([0-9.]*\),*$/\1/p"
}

metric() {
    curl -sf "$url/metrics" | field "$1"
}
