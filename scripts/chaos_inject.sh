#!/usr/bin/env bash
# Chaos differential for deterministic fault injection (docs/ROBUSTNESS.md):
# a real SIGSEGV injected at one tracked-access index must destroy exactly
# the trials whose crashing run reaches that index — every earlier trial's
# result must be byte-identical to a fault-free in-process run's.
#
#   scripts/chaos_inject.sh <build-dir>
#
# The flow: run a clean `--isolation none` reference, pick the median crash
# access as the injection point (guaranteed mid-window, so both sides of the
# split are populated), re-run under `--inject segv:<IDX>`, and require
#   faulted.csv == clean.csv rows with crash_access < IDX   (byte compare)
#   journal trial_failure count == clean rows with crash_access >= IDX
# plus a journal lint that every recorded failure carries kind "crashed".
# Two faulted legs run: one thread without retries (one attempt per
# failure), and two threads with one retry (two attempts per failure).
set -euo pipefail

BUILD_DIR=${1:?usage: chaos_inject.sh <build-dir>}
NVCT="$BUILD_DIR/tools/nvct"
TRACE_LINT="$BUILD_DIR/tools/trace_lint"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

APP=sp
TESTS=24

echo "== clean in-process reference (--isolation none) =="
"$NVCT" --app "$APP" --tests "$TESTS" --no-progress --isolation none \
  --csv-out "$WORK/clean.csv" > /dev/null

IDX=$(tail -n +2 "$WORK/clean.csv" | cut -d, -f1 | sort -n |
      awk '{ a[NR] = $1 } END { print a[int((NR + 1) / 2)] }')
SURVIVORS=$(awk -F, -v idx="$IDX" 'NR > 1 && $1 + 0 < idx' "$WORK/clean.csv" |
            wc -l)
VICTIMS=$((TESTS - SURVIVORS))
echo "== injecting segv at access $IDX ($SURVIVORS survivors, $VICTIMS victims) =="
(( SURVIVORS >= 1 && VICTIMS >= 1 )) || {
  echo "FAIL: injection point is not mid-window"; exit 1; }

awk -F, -v idx="$IDX" 'NR == 1 || $1 + 0 < idx' "$WORK/clean.csv" \
  > "$WORK/expected.csv"

# One faulted campaign: <leg> <attempts per failure> <nvct args...>.
faulted_leg() {
  local leg=$1 attempts=$2
  shift 2
  echo "== leg $leg: $* =="
  "$NVCT" --app "$APP" --tests "$TESTS" --no-progress \
    --inject "segv:$IDX" --max-trial-failures -1 "$@" \
    --journal "$WORK/$leg.jsonl" --csv-out "$WORK/$leg.csv" > /dev/null

  echo "== journal lint (every failure must be kind 'crashed') =="
  "$TRACE_LINT" --journal "$WORK/$leg.jsonl" --require-failure-kind crashed

  local failures retried
  failures=$(grep -c '"type":"trial_failure"' "$WORK/$leg.jsonl" || true)
  retried=$(grep '"type":"trial_failure"' "$WORK/$leg.jsonl" |
            grep -c "\"attempts\":$attempts," || true)
  [[ "$failures" -eq "$VICTIMS" ]] || {
    echo "FAIL: expected $VICTIMS trial failures, journal holds $failures"
    exit 1
  }
  [[ "$retried" -eq "$failures" ]] || {
    echo "FAIL: only $retried of $failures failures carry \"attempts\":$attempts"
    exit 1
  }
  echo "ok: $failures trials died on the injected fault, $attempts attempt(s) each"

  if cmp "$WORK/$leg.csv" "$WORK/expected.csv"; then
    echo "PASS: non-faulting trials are byte-identical to the clean run"
  else
    echo "FAIL: fault injection disturbed trials that never reached it"
    exit 1
  fi
}

faulted_leg single 1 --trial-retries 0
# A dead sweep is retried at its first uncaptured crash point, so with one
# retry every victim spends two attempts, and the restart workers running
# beside the re-sweeps must not disturb the survivors.
faulted_leg retried 2 --threads 2 --trial-retries 1
