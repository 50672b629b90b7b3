#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke test for the observability layer.
#
# Builds rnbmemd and rnbproxy, starts two backends and a proxy with
# -debug-addr, pushes a little traffic through the proxy's memcached
# port, then asserts the debug endpoints actually serve what the README
# promises: Prometheus metric families on /metrics (including the
# latency histograms and per-backend breaker gauges), the same counters
# under the same names in the memcached `stats` reply, and
# flight-recorder JSON on /debug/requests.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
MEMD1=127.0.0.1:21311
MEMD2=127.0.0.1:21312
PROXY=127.0.0.1:21322
DEBUG=127.0.0.1:21380
MEMD_DEBUG=127.0.0.1:21381

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$BIN"
}
trap cleanup EXIT

echo "obs-smoke: building"
go build -o "$BIN/rnbmemd" ./cmd/rnbmemd
go build -o "$BIN/rnbproxy" ./cmd/rnbproxy

"$BIN/rnbmemd" -addr "$MEMD1" -debug-addr "$MEMD_DEBUG" &
PIDS+=($!)
"$BIN/rnbmemd" -addr "$MEMD2" &
PIDS+=($!)

# Wait for the backends to accept connections.
wait_port() {
    local hostport=$1 i
    for i in $(seq 1 50); do
        if curl -s -o /dev/null --max-time 1 "telnet://$hostport" 2>/dev/null ||
            (exec 3<>"/dev/tcp/${hostport%:*}/${hostport#*:}") 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "obs-smoke: $hostport never came up" >&2
    return 1
}
wait_port "$MEMD1"
wait_port "$MEMD2"

"$BIN/rnbproxy" -listen "$PROXY" -replicas 2 -pool-size 2 \
    -debug-addr "$DEBUG" -slow-log 1ns "$MEMD1" "$MEMD2" &
PIDS+=($!)
wait_port "$PROXY"
wait_port "$DEBUG"

echo "obs-smoke: driving traffic"
# A store and two multi-gets through the proxy's memcached port, so the
# spans and histograms have something to show. Not `grep -q`: it exits at
# the first match, the producer dies of SIGPIPE and pipefail fails the
# stage although the match was found.
printf 'set k1 0 0 2\r\nv1\r\nset k2 0 0 2\r\nv2\r\nget k1 k2\r\nget k1 k2\r\nquit\r\n' |
    timeout 10 bash -c "exec 3<>/dev/tcp/${PROXY%:*}/${PROXY#*:}; cat >&3; cat <&3" |
    grep 'VALUE k1' >/dev/null || { echo "obs-smoke: proxy did not serve gets" >&2; exit 1; }

echo "obs-smoke: checking /metrics"
METRICS=$(curl -sf "http://$DEBUG/metrics")
for family in \
    rnb_request_duration_seconds_bucket \
    rnb_plan_duration_seconds_count \
    rnb_transport_rtt_seconds_count \
    rnb_transactions \
    rnb_resilience_replans \
    rnb_hotspot_promotions \
    rnb_pool_conns_open \
    rnb_server_breaker_state \
    proxy_requests \
    proxy_replicas; do
    if ! grep -q "^$family" <<<"$METRICS"; then
        echo "obs-smoke: /metrics missing family $family" >&2
        echo "$METRICS" >&2
        exit 1
    fi
done
# The two gets must have been recorded by the request histogram.
if ! grep -q '^rnb_request_duration_seconds_count [1-9]' <<<"$METRICS"; then
    echo "obs-smoke: request histogram empty after traffic" >&2
    exit 1
fi

echo "obs-smoke: checking stats against /metrics"
# `stats` is a rendering of the registry /metrics serves: every sample
# line without labels (a scalar counter or gauge; histogram series carry
# a suffix no family has) must be a STAT line under the same name, a
# memd_* family under its bare memcached name.
STATS=$(printf 'stats\r\nquit\r\n' |
    timeout 10 bash -c "exec 3<>/dev/tcp/${PROXY%:*}/${PROXY#*:}; cat >&3; cat <&3" | tr -d '\r')
SCALARS=$(awk '$1 == "#" && $2 == "TYPE" && ($4 == "counter" || $4 == "gauge") { kind[$3] = 1 }
    $1 in kind { print $1 }' <<<"$METRICS")
for family in $SCALARS rnb_transactions rnb_resilience_replans rnb_writeback_queued proxy_requests; do
    if ! grep "^STAT ${family#memd_} [0-9-]" <<<"$STATS" >/dev/null; then
        echo "obs-smoke: stats missing /metrics family $family" >&2
        echo "$STATS" >&2
        exit 1
    fi
done
[ "$(wc -w <<<"$SCALARS")" -ge 40 ] || { echo "obs-smoke: only $(wc -w <<<"$SCALARS") scalar families parsed from /metrics" >&2; exit 1; }

echo "obs-smoke: checking /debug/requests"
DUMP=$(curl -sf "http://$DEBUG/debug/requests")
grep -q '"op": *"get_multi"' <<<"$DUMP" || {
    echo "obs-smoke: flight recorder has no get_multi span:" >&2
    echo "$DUMP" >&2
    exit 1
}
grep -q '"phase": *"fanout"' <<<"$DUMP" || {
    echo "obs-smoke: span carries no per-server round trips:" >&2
    echo "$DUMP" >&2
    exit 1
}

echo "obs-smoke: checking backend /metrics"
MEMD_METRICS=$(curl -sf "http://$MEMD_DEBUG/metrics")
for family in memd_cmd_get memd_curr_items memd_total_connections; do
    if ! grep -q "^$family" <<<"$MEMD_METRICS"; then
        echo "obs-smoke: backend /metrics missing $family" >&2
        echo "$MEMD_METRICS" >&2
        exit 1
    fi
done

echo "obs-smoke: OK"
