#!/usr/bin/env bash
# End-to-end smoke test of the adrecd daemon through the CLI client:
# boots the daemon on an ephemeral port, exercises one command of every
# class over the real wire, and verifies a graceful SIGTERM drain.
#
#   ci_serve_smoke.sh <path-to-adrecd> <path-to-adrec_client>
#
# Registered as a tier1 ctest (see tests/CMakeLists.txt), so the default
# gate covers the daemon binary itself, not just the serve library.
#
# Phase 2 reboots the daemon multi-core (--workers=2 --wal-shards=2,
# DESIGN.md §16): worker-tagged conns output, per-shard WAL stream
# directories on disk, and a restart that replays both streams.
set -euo pipefail

ADRECD="${1:?usage: ci_serve_smoke.sh <adrecd> <adrec_client>}"
CLIENT="${2:?usage: ci_serve_smoke.sh <adrecd> <adrec_client>}"

LOG="$(mktemp)"
WALDIR="$(mktemp -d)"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -f "$LOG"; rm -rf "$WALDIR"' EXIT

# --port=0 binds an ephemeral port; parse it from the listening line.
# --trace-sample=1 keeps every completed trace so the flight-recorder
# checks below see the topk request regardless of request count.
"$ADRECD" --port=0 --report-interval=1 --trace-sample=1 >"$LOG" 2>&1 &
DAEMON_PID=$!

PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/^adrecd listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG")"
  [ -n "$PORT" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$LOG"; echo "FAIL: daemon died during startup"; exit 1; }
  sleep 0.2
done
[ -n "$PORT" ] && echo "smoke: daemon up on port $PORT" || { cat "$LOG"; echo "FAIL: no listening line"; exit 1; }

expect() {  # expect <want-substring> <verb> [args...]
  local want="$1"; shift
  local got
  got="$("$CLIENT" 127.0.0.1 "$PORT" "$@")" || true
  case "$got" in
    *"$want"*) echo "smoke: $* -> ok" ;;
    *) echo "FAIL: '$*' returned '$got', wanted '$want'"; exit 1 ;;
  esac
}

expect "PONG" ping
expect "OK" tweet 4 86400 "coffee and live music downtown"
expect "OK" checkin 4 86500 7
expect "OK" adput 1 100 50 1.5 "" "" "coffee and music deals"
TOPK="$("$CLIENT" 127.0.0.1 "$PORT" topk 4 3)" || true
case "$TOPK" in
  ADS*) echo "smoke: topk 4 3 -> ok" ;;
  *) echo "FAIL: 'topk 4 3' returned '$TOPK', wanted 'ADS'"; exit 1 ;;
esac
# The frequency-cap ledger gauge reaches the shipped binary: every served
# ad of the topk above is a new (user, ad) pair in the ledger.
SERVED="$(printf '%s\n' "$TOPK" | grep -c '^AD ' || true)"
[ "$SERVED" -ge 1 ] || { echo "FAIL: topk 4 3 served no ad: '$TOPK'"; exit 1; }
# (grep without -q reads all input, so no SIGPIPE trips pipefail.)
"$CLIENT" 127.0.0.1 "$PORT" metrics | tr -d '\r' |
  grep -x "adrec_ads_freqcap_pairs $SERVED" >/dev/null ||
  { echo "FAIL: metrics lacks 'adrec_ads_freqcap_pairs $SERVED'"; exit 1; }
echo "smoke: adrec_ads_freqcap_pairs = $SERVED served ads -> ok"
expect "OK" analyze 0.45
expect "USERS" match 1
expect "STAT engine.tweets 1" stats
expect "adrec_serve_cmd_topk" metrics
expect "adrec_engine_tweets_total 1" metrics
expect "CLIENT_ERROR" frobnicate

# Observability surface: the topk above must have left a trace in the
# flight recorder covering serve -> engine, and the Chrome export must
# be loadable JSON.
expect "TRACE" trace
expect "serve.dispatch" trace
expect "engine.topk" trace
expect "traceEvents" trace chrome
expect "SLOW" slow
expect "CONN" conns
expect "adrec_trace_traces_started_total" metrics

expect "OK" addel 1
expect "NOT_FOUND" addel 1

# Parse-or-reject: a malformed payload must not take the daemon down.
expect "CLIENT_ERROR" topk 4 0
kill -0 "$DAEMON_PID" || { echo "FAIL: daemon died on bad input"; exit 1; }

# Graceful drain: SIGTERM must exit 0 after flushing.
kill -TERM "$DAEMON_PID"
RC=0
wait "$DAEMON_PID" || RC=$?
[ "$RC" -eq 0 ] || { cat "$LOG"; echo "FAIL: drain exit code $RC"; exit 1; }
grep -q "drained" "$LOG" || { cat "$LOG"; echo "FAIL: no drain log line"; exit 1; }

# --- Phase 2: multi-core daemon with per-shard WAL streams. ---

boot() {  # boot [extra adrecd flags...]
  : >"$LOG"
  "$ADRECD" --port=0 --shards=2 --workers=2 \
    --wal-dir="$WALDIR/wal" --wal-shards=2 \
    "$@" >"$LOG" 2>&1 &
  DAEMON_PID=$!
  PORT=""
  for _ in $(seq 1 50); do
    PORT="$(sed -n 's/^adrecd listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG")"
    [ -n "$PORT" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$LOG"; echo "FAIL: pool daemon died during startup"; exit 1; }
    sleep 0.2
  done
  [ -n "$PORT" ] || { cat "$LOG"; echo "FAIL: pool daemon printed no listening line"; exit 1; }
}

drain() {
  kill -TERM "$DAEMON_PID"
  local rc=0
  wait "$DAEMON_PID" || rc=$?
  [ "$rc" -eq 0 ] || { cat "$LOG"; echo "FAIL: pool drain exit code $rc"; exit 1; }
}

boot
echo "smoke: pool daemon up on port $PORT (2 workers, 2 WAL streams)"
expect "PONG" ping
# Users 3 and 4 hash to different shards under the 2-shard split, so
# both WAL streams see traffic.
expect "OK" tweet 3 86400 "coffee and live music downtown"
expect "OK" tweet 4 86401 "rooftop jazz tonight"
expect "OK" adput 9 100 50 1.5 "" "" "coffee and music deals"
expect "ADS" topk 4 3
expect "STAT engine.tweets 2" stats
expect "worker=" conns
drain

# Durability landed as one log stream per shard.
for s in 0 1; do
  [ -d "$WALDIR/wal/$s" ] || { ls -R "$WALDIR/wal"; echo "FAIL: no WAL stream dir $s"; exit 1; }
done

# Parallel recovery: a fresh boot over the same log must replay both
# streams and answer from the recovered state.
boot
echo "smoke: pool daemon recovered on port $PORT"
expect "STAT engine.tweets 2" stats
expect "ADS" topk 3 3
drain
grep -q "drained" "$LOG" || { cat "$LOG"; echo "FAIL: no pool drain log line"; exit 1; }

echo "smoke: all serve checks passed"
