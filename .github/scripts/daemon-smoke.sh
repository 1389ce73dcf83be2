#!/usr/bin/env bash
# Shard-server daemon smoke: start `tune-cache serve`, run two
# concurrent `tune-net --daemon` clients with overlapping networks,
# assert a third client replays with zero new measurements, then shut
# the daemon down cleanly (exit 0, socket file removed).
set -euo pipefail

TC=target/release/tune-cache
DIR=$(mktemp -d /tmp/iolb-daemon-smoke.XXXXXX)
SOCK="$DIR/daemon.sock"
NET_A="32,14,14,16,1,1,1,0;16,14,14,32,1,1,1,0;32,14,14,16,1,1,1,0"
NET_B="16,14,14,32,1,1,1,0;24,14,14,12,1,1,1,0"

"$TC" serve "$DIR" --budget 8 --merge-interval-ms 100 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon socket never appeared"; exit 1; }

# Two concurrent client processes with overlapping workloads.
"$TC" tune-net --layers "$NET_A" --daemon "$SOCK" &
CLIENT_A=$!
"$TC" tune-net --layers "$NET_B" --daemon "$SOCK" &
CLIENT_B=$!
wait "$CLIENT_A"
wait "$CLIENT_B"

# A later client must replay purely from daemon memory.
REPLAY=$("$TC" tune-net --layers "$NET_A" --daemon "$SOCK")
echo "$REPLAY"
echo "$REPLAY" | grep -q " 0 fresh measurement(s)" \
  || { echo "replay client performed fresh measurements"; exit 1; }

# The live daemon's registry: session counter and latency histogram,
# each counter under one name.
LIVE=$("$TC" metrics "$SOCK")
echo "$LIVE" | grep -E '^(iolb_sessions_total|iolb_service_fresh_measurements_total) '
echo "$LIVE" | grep -q '^iolb_session_us_count ' \
  || { echo "live metrics carry no session latency histogram"; exit 1; }
DUPES=$(echo "$LIVE" | grep -v '^#' | awk '{ print $1 }' | sort | uniq -d)
[ -z "$DUPES" ] || { echo "live metrics repeat names: $DUPES"; exit 1; }

# Clean shutdown: exit 0 and the socket file is gone.
"$TC" stop "$SOCK"
wait "$SERVE_PID"
[ ! -e "$SOCK" ] || { echo "socket file survived shutdown"; exit 1; }

# The directory the daemon persisted is loadable and non-trivial, and
# its sidecar reads the same through serve-stats and metrics.
"$TC" serve-stats "$DIR"
.github/scripts/check-stats-metrics.sh "$TC" "$DIR"
echo "daemon smoke OK"
