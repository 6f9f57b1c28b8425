#!/bin/sh
# pressiod smoke test: build the daemon, start it on an ephemeral port, wait
# for readiness, push one compress/decompress round-trip through the HTTP
# data plane (checking the observability headers, the /tracez JSON and text
# trees, and that /metricz serves valid Prometheus exposition), then SIGTERM
# it, require a clean (exit 0) graceful drain, and check that every stderr
# log line follows the ts/level/event schema.
#
# Usage: scripts/pressiod-smoke.sh   (also run by the CI pressiod-smoke job)
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "==> build pressiod"
go build -o "$tmp/pressiod" ./cmd/pressiod

echo "==> start daemon (ephemeral port, breaker+guard over sz_threadsafe)"
"$tmp/pressiod" -addr 127.0.0.1:0 -compressor sz_threadsafe -breaker -guard \
    -o pressio:abs=0.01 -lame-duck 200ms 2>"$tmp/log" &
pid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^pressiod: listening on \([^ ]*\).*/\1/p' "$tmp/log")
    [ -n "$addr" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "pressiod never reported a listen address:" >&2
    cat "$tmp/log" >&2
    exit 1
fi
base="http://$addr"

echo "==> wait for /readyz on $addr"
i=0
until curl -fsS "$base/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ $i -ge 50 ] && { echo "/readyz never became ready" >&2; exit 1; }
    sleep 0.1
done
curl -fsS "$base/healthz" >/dev/null

echo "==> health endpoints carry explicit Content-Type and no-store"
for path in /healthz /readyz; do
    curl -fsS -D "$tmp/h" "$base$path" >/dev/null
    grep -qi '^content-type: text/plain; charset=utf-8' "$tmp/h" || {
        echo "$path missing text/plain Content-Type:" >&2
        cat "$tmp/h" >&2
        exit 1
    }
    grep -qi '^cache-control: no-store' "$tmp/h" || {
        echo "$path missing Cache-Control: no-store:" >&2
        cat "$tmp/h" >&2
        exit 1
    }
done

echo "==> compress/decompress round-trip"
dd if=/dev/zero of="$tmp/x.bin" bs=4096 count=4 2>/dev/null
curl -fsS -D "$tmp/h" --data-binary @"$tmp/x.bin" \
    "$base/compress?dims=4096&dtype=float32" -o "$tmp/x.sz"
curl -fsS --data-binary @"$tmp/x.sz" \
    "$base/decompress?dims=4096&dtype=float32" -o "$tmp/x.out"
out_bytes=$(wc -c <"$tmp/x.out")
if [ "$out_bytes" -ne 16384 ]; then
    echo "round-trip produced $out_bytes bytes, want 16384" >&2
    exit 1
fi

echo "==> response carries a request id whose span tree is on /tracez"
req_id=$(sed -n 's/^[Xx]-[Pp]ressio-[Rr]equest-[Ii]d: \([0-9a-f]*\).*/\1/p' "$tmp/h")
if [ -z "$req_id" ]; then
    echo "compress response carried no X-Pressio-Request-Id:" >&2
    cat "$tmp/h" >&2
    exit 1
fi
grep -qi '^traceparent: 00-' "$tmp/h" || {
    echo "compress response carried no traceparent:" >&2
    cat "$tmp/h" >&2
    exit 1
}
curl -fsS "$base/tracez?id=$req_id" >"$tmp/trace.json"
grep -q '"daemon.compress"' "$tmp/trace.json" || {
    echo "/tracez?id=$req_id has no daemon.compress span:" >&2
    cat "$tmp/trace.json" >&2
    exit 1
}
curl -fsS "$base/tracez?id=$req_id&format=tree" >"$tmp/trace.txt"
grep -q ' daemon\.compress' "$tmp/trace.txt" || {
    echo "/tracez?id=$req_id&format=tree has no daemon.compress line:" >&2
    cat "$tmp/trace.txt" >&2
    exit 1
}

echo "==> /metricz parses as Prometheus text exposition"
curl -fsS -D "$tmp/h" "$base/metricz" -o "$tmp/metrics"
grep -qi '^content-type: text/plain; version=0.0.4' "$tmp/h" || {
    echo "/metricz missing exposition Content-Type:" >&2
    cat "$tmp/h" >&2
    exit 1
}
grep -qi '^cache-control: no-store' "$tmp/h" || {
    echo "/metricz missing Cache-Control: no-store" >&2
    exit 1
}
# Every non-comment line must be "<name>[{labels}] <value>"; the round-trip
# above guarantees at least the request counter is present.
if grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9eE.]+|)$' "$tmp/metrics"; then
    echo "/metricz contains malformed exposition lines (printed above)" >&2
    exit 1
fi
grep -q '^pressio_service_daemon_requests_total ' "$tmp/metrics" || {
    echo "/metricz has no pressio_service_daemon_requests_total sample" >&2
    exit 1
}
grep -q '^pressio_service_daemon_latency_seconds_bucket{le="' "$tmp/metrics" || {
    echo "/metricz has no request-latency histogram buckets" >&2
    exit 1
}

echo "==> SIGTERM and graceful drain"
kill -TERM "$pid"
wait "$pid" # must exit 0: a clean drain within the deadline
pid=""

echo "==> stderr log lines follow the event schema"
# Every JSON line opens with ts (UTC), a lowercase level and the event name.
if grep '^{' "$tmp/log" | grep -vE '^\{"ts":"[^"]*Z","level":"(debug|info|warn|error)","event":"'; then
    echo "log lines above break the ts/level/event schema" >&2
    exit 1
fi
for event in daemon.start daemon.drain.begin daemon.drain.end; do
    n=$(grep -c "^{.*\"event\":\"$event\"" "$tmp/log" || true)
    if [ "$n" -ne 1 ]; then
        echo "event $event logged $n times, want exactly once:" >&2
        cat "$tmp/log" >&2
        exit 1
    fi
done

echo "==> pressiod smoke OK"
cat "$tmp/log"
