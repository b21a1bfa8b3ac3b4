#!/bin/sh
# Wall-clock bound of the client's retry loop.
#
# The retry loop used to count *attempts* while each attempt could
# burn a full connect/read timeout, so "--retry 5" against a stuck
# daemon meant minutes of hanging.  --deadline MS is a total budget:
# however the attempts fail, the client must give up within it.
#
#   1. against a *closed* port (instant ECONNREFUSED, so the attempt
#      counter alone would allow 50 tries x growing backoff), the
#      budget stops the loop in ~1.5s with a "deadline budget" error,
#      after no more attempts than the jittered 100 ms doubling
#      backoff fits into 1.5s (at most 6): the last sleep must not
#      wake early and spin on refused connects
#   2. against a *stopped* daemon (connections land in the accept
#      backlog and never get answered, so every attempt burns its
#      read timeout), the budget still holds; attempt timeouts are
#      shrunk to the remaining budget
#   3. a resumed daemon serves the same command again: the budget
#      failure poisoned nothing
#
# Usage: client_deadline_smoke.sh <jcached> <jcache-client> <workdir>
set -eu

JCACHED=$1
CLIENT=$2
WORKDIR=$3

mkdir -p "$WORKDIR"
PORT_FILE="$WORKDIR/jcached.port"
DAEMON_LOG="$WORKDIR/jcached.log"
DAEMON_PID=""

fail() {
    echo "client_deadline_smoke: FAIL: $1" >&2
    [ -s "$DAEMON_LOG" ] && sed 's/^/  jcached: /' "$DAEMON_LOG" >&2
    [ -n "$DAEMON_PID" ] && kill -CONT "$DAEMON_PID" 2>/dev/null
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    exit 1
}

start_daemon() {
    rm -f "$PORT_FILE"
    "$JCACHED" --port 0 --port-file "$PORT_FILE" \
        > "$DAEMON_LOG" 2>&1 &
    DAEMON_PID=$!
    tries=0
    while [ ! -s "$PORT_FILE" ]; do
        tries=$((tries + 1))
        [ "$tries" -gt 100 ] && fail "daemon never wrote its port"
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited early"
        sleep 0.1
    done
    PORT=$(cat "$PORT_FILE")
}

# Phase 1: a port nothing listens on.  Borrow an ephemeral port from
# a short-lived daemon so the refusal is deterministic.
start_daemon
kill "$DAEMON_PID" && wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
echo "client_deadline_smoke: phase 1, closed port $PORT"

BEGIN=$(date +%s)
if "$CLIENT" --port "$PORT" --retry 50 --backoff 100 \
    --deadline 1500 ping > /dev/null 2> "$WORKDIR/refused.err"; then
    fail "ping against a closed port succeeded"
fi
ELAPSED=$(( $(date +%s) - BEGIN ))
[ "$ELAPSED" -le 10 ] \
    || fail "budget of 1.5s let the client spin for ${ELAPSED}s"
grep -q "deadline budget" "$WORKDIR/refused.err" \
    || fail "no deadline-budget error: $(cat "$WORKDIR/refused.err")"
ATTEMPTS=$(sed -n 's/.*exhausted after \([0-9]*\) attempt.*/\1/p' \
    "$WORKDIR/refused.err")
[ -n "$ATTEMPTS" ] && [ "$ATTEMPTS" -le 6 ] \
    || fail "closed port took '$ATTEMPTS' attempts, expected at most 6"
echo "client_deadline_smoke: closed port gave up in ${ELAPSED}s" \
    "after $ATTEMPTS attempts"

# Phase 2: a daemon that accepts but never answers (SIGSTOP keeps the
# listener's backlog open while nothing reads the requests).
start_daemon
echo "client_deadline_smoke: phase 2, daemon pid $DAEMON_PID port $PORT"
"$CLIENT" --port "$PORT" --deadline 5000 ping > /dev/null \
    || fail "ping with a sane deadline"
kill -STOP "$DAEMON_PID"

BEGIN=$(date +%s)
if "$CLIENT" --port "$PORT" --timeout 400 --retry 10 --backoff 100 \
    --deadline 2000 ping > /dev/null 2> "$WORKDIR/stuck.err"; then
    kill -CONT "$DAEMON_PID"
    fail "ping against a stopped daemon succeeded"
fi
ELAPSED=$(( $(date +%s) - BEGIN ))
[ "$ELAPSED" -le 12 ] \
    || fail "budget of 2s let the client hang for ${ELAPSED}s"
grep -q "deadline budget" "$WORKDIR/stuck.err" \
    || fail "no deadline-budget error: $(cat "$WORKDIR/stuck.err")"
echo "client_deadline_smoke: stopped daemon gave up in ${ELAPSED}s"

# Phase 3: resume; the daemon and the client both still work.
kill -CONT "$DAEMON_PID"
"$CLIENT" --port "$PORT" --retry --deadline 10000 ping > /dev/null \
    || fail "ping after resume"
"$CLIENT" --port "$PORT" --retry shutdown > /dev/null \
    || fail "shutdown"
tries=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && fail "daemon did not exit"
    sleep 0.1
done
wait "$DAEMON_PID" 2>/dev/null || true
echo "client_deadline_smoke: PASS"
