#!/usr/bin/env bash
# trace_smoke.sh — end-to-end smoke test for distributed tracing.
#
# Builds rnbmemd and rnbproxy, starts two traced backends and a proxy
# with -trace, pushes multi-gets through the proxy's memcached port,
# then asserts the whole tracing promise held: the trace context
# propagated to the backends (memd_traced_transactions > 0 and
# /debug/spans non-empty on the backend), the proxy kept stitched
# traces whose RTTs carry server timings (/debug/traces +
# /debug/trace/<id> as Chrome trace-event JSON), the memd_* phase
# histograms filled, and the -trace-dump file appears on shutdown.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
MEMD1=127.0.0.1:21411
MEMD2=127.0.0.1:21412
PROXY=127.0.0.1:21422
DEBUG=127.0.0.1:21480
MEMD_DEBUG=127.0.0.1:21481
DUMPFILE="$BIN/trace_dump.json"

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$BIN"
}
trap cleanup EXIT

echo "trace-smoke: building"
go build -o "$BIN/rnbmemd" ./cmd/rnbmemd
go build -o "$BIN/rnbproxy" ./cmd/rnbproxy

"$BIN/rnbmemd" -addr "$MEMD1" -debug-addr "$MEMD_DEBUG" &
PIDS+=($!)
"$BIN/rnbmemd" -addr "$MEMD2" &
PIDS+=($!)

wait_port() {
    local hostport=$1 i
    for i in $(seq 1 50); do
        if (exec 3<>"/dev/tcp/${hostport%:*}/${hostport#*:}") 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "trace-smoke: $hostport never came up" >&2
    return 1
}
wait_port "$MEMD1"
wait_port "$MEMD2"

# -slow-log 1ns: every request is slow, so every trace lands in the
# always-keep slow ring and the assertions below never race the
# reservoir. The slow log itself (one stderr line per request) is
# noise here.
"$BIN/rnbproxy" -listen "$PROXY" -replicas 2 -pool-size 2 \
    -trace -slow-log 1ns -trace-dump "$DUMPFILE" \
    -debug-addr "$DEBUG" "$MEMD1" "$MEMD2" &
PROXY_PID=$!
PIDS+=($PROXY_PID)
wait_port "$PROXY"
wait_port "$DEBUG"

echo "trace-smoke: driving traffic"
# Not `grep -q`: it exits at the first match, the producer dies of
# SIGPIPE and pipefail fails the stage although the match was found.
printf 'set k1 0 0 2\r\nv1\r\nset k2 0 0 2\r\nv2\r\nget k1 k2\r\nget k1 k2\r\nget k1 k2\r\nquit\r\n' |
    timeout 10 bash -c "exec 3<>/dev/tcp/${PROXY%:*}/${PROXY#*:}; cat >&3; cat <&3" |
    grep 'VALUE k1' >/dev/null || { echo "trace-smoke: proxy did not serve gets" >&2; exit 1; }

echo "trace-smoke: checking backend trace negotiation"
MEMD_METRICS=$(curl -sf "http://$MEMD_DEBUG/metrics")
for family in \
    memd_traced_transactions \
    memd_queue_wait_seconds_count \
    memd_exec_seconds_count \
    memd_flush_seconds_count; do
    if ! grep -q "^$family" <<<"$MEMD_METRICS"; then
        echo "trace-smoke: backend /metrics missing $family" >&2
        echo "$MEMD_METRICS" >&2
        exit 1
    fi
done
if ! grep -q '^memd_traced_transactions [1-9]' <<<"$MEMD_METRICS"; then
    echo "trace-smoke: backend saw no traced transactions" >&2
    echo "$MEMD_METRICS" >&2
    exit 1
fi
SPANS=$(curl -sf "http://$MEMD_DEBUG/debug/spans")
grep -q '"op": *"get_multi"' <<<"$SPANS" || {
    echo "trace-smoke: backend flight recorder has no traced get_multi span:" >&2
    echo "$SPANS" >&2
    exit 1
}

echo "trace-smoke: checking proxy trace buffer"
TRACES=$(curl -sf "http://$DEBUG/debug/traces")
TRACE_ID=$(sed -n 's/.*"trace_id": *\([0-9][0-9]*\).*/\1/p' <<<"$TRACES" | head -1)
if [ -z "$TRACE_ID" ]; then
    echo "trace-smoke: /debug/traces kept nothing:" >&2
    echo "$TRACES" >&2
    exit 1
fi

echo "trace-smoke: checking /debug/trace/$TRACE_ID"
EVENTS=$(curl -sf "http://$DEBUG/debug/trace/$TRACE_ID")
# Chrome trace-event shape: traceEvents array with complete ("X") events
# including the server-side phase slices.
grep -q '"traceEvents"' <<<"$EVENTS" || {
    echo "trace-smoke: trace export is not Chrome trace-event JSON:" >&2
    echo "$EVENTS" >&2
    exit 1
}
grep -q '"ph": *"X"' <<<"$EVENTS" || {
    echo "trace-smoke: trace export has no complete events:" >&2
    echo "$EVENTS" >&2
    exit 1
}
SPAN_JSON=$(curl -sf "http://$DEBUG/debug/trace/$TRACE_ID?format=span")
grep -q '"server_timings"' <<<"$SPAN_JSON" || {
    echo "trace-smoke: kept trace has no server timings (propagation failed):" >&2
    echo "$SPAN_JSON" >&2
    exit 1
}

echo "trace-smoke: checking -trace-dump on shutdown"
kill -TERM "$PROXY_PID"
for i in $(seq 1 50); do
    [ -s "$DUMPFILE" ] && break
    sleep 0.1
done
[ -s "$DUMPFILE" ] || { echo "trace-smoke: -trace-dump wrote nothing" >&2; exit 1; }
grep -q '"traceEvents"' "$DUMPFILE" || {
    echo "trace-smoke: dump file is not Chrome trace-event JSON" >&2
    cat "$DUMPFILE" >&2
    exit 1
}

echo "trace-smoke: OK"
