#!/bin/sh
# Crash-recovery test for store-backed sweeps.
#
# The acceptance property: a sweep that is SIGKILLed mid-run and then
# re-run over the same --store-dir produces output byte-identical to
# an uninterrupted sweep, simulating only the cells the store lacks.
# The kill is deterministic — the store.put.crash fault site SIGKILLs
# the process in the middle of the nth put, leaving a half-written
# temporary behind — so the test never races the scheduler.
#
#   1. reference: an uninterrupted `ccom --axis size` without a store
#   2. crash: the same sweep over a fresh store dies in its 4th put
#      (exit 137), after 3 cells were published
#   3. resume: the re-run reuses those 3 cells, simulates the other
#      5, matches the reference byte for byte, and the store's open
#      swept the torn temporary
#   4. isolation: an `--axis assoc` sweep over the same store matches
#      a cold assoc run; a store hit needs the same trace, config,
#      engine and version, so another sweep's cells never mix in
#
# Usage: sweep_resume.sh <jcache-sweep> <workdir>
set -eu

SWEEP=$1
WORKDIR=$2

mkdir -p "$WORKDIR"
STORE="$WORKDIR/store"
rm -rf "$STORE"

fail() {
    echo "sweep_resume: FAIL: $1" >&2
    exit 1
}

# 1. Uninterrupted reference run (no store involved).
"$SWEEP" ccom --axis size > "$WORKDIR/reference.txt" ||
    fail "reference sweep failed"

# 2. Store-backed run that the fault harness SIGKILLs in its 4th put.
#    Puts run in sweep-point order, so exactly 3 cells are published.
status=0
JCACHE_FAULTS="store.put.crash=n4" \
    "$SWEEP" ccom --axis size --jobs 1 --store-dir "$STORE" \
    > /dev/null 2>&1 || status=$?
[ "$status" -eq 137 ] ||
    fail "expected SIGKILL (exit 137), got exit $status"

# 3. The re-run replays only the missing cells...
"$SWEEP" ccom --axis size --store-dir "$STORE" \
    > "$WORKDIR/resumed.txt" 2> "$WORKDIR/resume.log" ||
    fail "resumed sweep failed"
grep -q "store: reused 3 cells, simulated 5 cells" \
    "$WORKDIR/resume.log" ||
    fail "resume did not reuse 3 cells: $(cat "$WORKDIR/resume.log")"

# ...reproduces the uninterrupted output exactly...
cmp -s "$WORKDIR/reference.txt" "$WORKDIR/resumed.txt" ||
    fail "resumed sweep output differs from uninterrupted run"

# ...and leaves no torn temporary behind.
[ -z "$(find "$STORE/objects" -name '*.tmp')" ] ||
    fail "stale store temporary left behind"

# 4. A different sweep over the same store never mixes cells in.
"$SWEEP" ccom --axis assoc > "$WORKDIR/assoc_cold.txt" ||
    fail "cold assoc sweep failed"
"$SWEEP" ccom --axis assoc --store-dir "$STORE" \
    > "$WORKDIR/assoc_store.txt" 2> /dev/null ||
    fail "assoc sweep over the store failed"
cmp -s "$WORKDIR/assoc_cold.txt" "$WORKDIR/assoc_store.txt" ||
    fail "assoc sweep over the store differs from a cold one"

echo "sweep_resume: PASS"
