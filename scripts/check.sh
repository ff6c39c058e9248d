#!/usr/bin/env bash
# Pre-merge correctness gate for flashqos.
#
# Runs, in order:
#   1. warnings-as-errors build of everything (libs, tests, benches, examples)
#      and the plain ctest suite
#   2. flashqos_lint over src/ against the committed baseline (in-tree
#      contract linter: sanctioned logging, zero-alloc hot paths, seeded
#      randomness, SimTime-only simulation code, include hygiene)
#   3. schedule-exhaustive model checking (flashqos_verify --model): every
#      interleaving of the bounded ThreadPool / HandoffQueue / MetricRegistry
#      models, with vector-clock race, deadlock, and lost-wakeup detection
#   4. the test suite under AddressSanitizer + UndefinedBehaviorSanitizer
#   5. an obs-off build (-DFLASHQOS_OBS=OFF, every instrument compiled out)
#      and the plain ctest suite: the golden snapshots must still match
#      byte for byte, so no result depends on an instrumentation block
#   6. the test suite under ThreadSanitizer
#   7. the design-invariant verifier (flashqos_verify) over every catalog
#      design with N <= 64, plus the serial ≡ sweep replay-equivalence
#      audit (every mode combination and failure windows replayed as one
#      sharded run_jobs batch, each slot against serial run()), the
#      observability self-audit (--obs: recorded metrics, windowed
#      time-series points, SLO burn-rate pages, and trace spans checked
#      against the replay outcomes they describe), and the
#      fault-injection chaos audit (--faults: randomized fault plans with
#      request-conservation, routing, guarantee-reestablishment, and
#      serial ≡ sweep checks), the streaming-identity audit
#      (--stream: run() is run_stream over a VectorCursor, and the audit
#      proves batch-size and cursor-source invariance — results, metric
#      registry, and windowed time-series bit-identical at every batch
#      size, through generator and chunked-file cursors, with a seeded
#      drain-bound mutation proving the audit can fail; the golden
#      snapshots in ctest pin the absolute per-request results), and the
#      daemon-identity audit (--daemon: results served over a real loopback flashqosd
#      session field-identical to in-process replay, including
#      multi-connection interleavings, clamping, and mid-session flushes)
#   8. flashqosd lifecycle smoke: start the daemon on an ephemeral port
#      from a generated config, parse its listen line, SIGTERM it, and
#      require a clean drain and exit 0
#   9. clang-tidy over src/ (skipped with a warning if clang-tidy is not
#      installed — stages 2–3 are the always-on static gate; clang-tidy is
#      an extra when a clang toolchain is around)
#
# Usage: scripts/check.sh [--quick]
#   --quick: skip the TSan pass (the slowest stage) — NOT sufficient for
#            merging concurrency changes.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "check.sh: unknown argument '$arg' (usage: scripts/check.sh [--quick])" >&2
       exit 2 ;;
  esac
done

run() { echo "+ $*" >&2; "$@"; }

banner() {
  echo
  echo "==================================================================="
  echo "== $*"
  echo "==================================================================="
}

banner "1/9 warnings-as-errors build + ctest"
run cmake -B build-werror -S . -DFLASHQOS_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
run cmake --build build-werror -j "$JOBS"
run ctest --test-dir build-werror --output-on-failure -j "$JOBS"

banner "2/9 flashqos_lint (contract linter)"
run ./build-werror/src/lint/flashqos_lint --root src \
  --baseline scripts/lint_baseline.txt

banner "3/9 schedule-exhaustive model checking"
run ./build-werror/src/verify/flashqos_verify --model

banner "4/9 ASan + UBSan"
run cmake -B build-asan -S . -DFLASHQOS_WERROR=ON -DFLASHQOS_SANITIZE=address \
  -DFLASHQOS_BUILD_BENCH=OFF -DFLASHQOS_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
run cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1" \
  run ctest --test-dir build-asan --output-on-failure -j "$JOBS"

banner "5/9 obs-off build + ctest (instrumentation compiled out)"
run cmake -B build-obsoff -S . -DFLASHQOS_OBS=OFF -DFLASHQOS_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
run cmake --build build-obsoff -j "$JOBS"
run ctest --test-dir build-obsoff --output-on-failure -j "$JOBS"

if [[ $QUICK -eq 0 ]]; then
  banner "6/9 TSan"
  run cmake -B build-tsan -S . -DFLASHQOS_WERROR=ON -DFLASHQOS_SANITIZE=thread \
    -DFLASHQOS_BUILD_BENCH=OFF -DFLASHQOS_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  run cmake --build build-tsan -j "$JOBS"
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    run ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
else
  banner "6/9 TSan — SKIPPED (--quick)"
fi

banner "7/9 design-invariant verifier (catalog, N <= 64) + replay equivalence + obs audit + chaos audit + fairness audit + stream audit + daemon audit"
run ./build-werror/src/verify/flashqos_verify --max-devices 64 --replay --obs --faults --fairness --stream --daemon

banner "8/9 flashqosd lifecycle smoke (ephemeral port, loopback batch, clean drain)"
daemon_smoke() {
  # $1: "probe" (drive one batch; end-session drains the daemon) or
  #     "sigterm" (no traffic; the signal forces the drain).
  local mode=$1 ini log pid listen port rc=0
  ini=$(mktemp) log=$(mktemp)
  printf '[design]\nname = (9,3,1)\n\n[pipeline]\nretrieval = online\nadmission = deterministic\n' > "$ini"
  echo "+ ./build-werror/src/net/flashqosd $ini --port 0  # $mode" >&2
  ./build-werror/src/net/flashqosd "$ini" --port 0 > "$log" &
  pid=$!
  listen=""
  for _ in $(seq 1 100); do
    listen=$(grep -o 'listening on 127\.0\.0\.1:[0-9]*' "$log" || true)
    [[ -n "$listen" ]] && break
    kill -0 "$pid" 2> /dev/null || { cat "$log"; echo "check.sh: flashqosd died before listening" >&2; return 1; }
    sleep 0.1
  done
  [[ -n "$listen" ]] || { cat "$log"; echo "check.sh: flashqosd never printed its listen line" >&2; return 1; }
  if [[ $mode == probe ]]; then
    port=${listen##*:}
    run ./build-werror/src/verify/flashqos_verify --daemon-probe "$port" || return 1
  else
    kill -TERM "$pid"
  fi
  wait "$pid" || rc=$?
  cat "$log"
  grep -q 'flashqosd: drained' "$log" || { echo "check.sh: flashqosd did not report a drain ($mode)" >&2; return 1; }
  rm -f "$ini" "$log"
  [[ $rc -eq 0 ]] || { echo "check.sh: flashqosd exited $rc (want clean drain + 0, $mode)" >&2; return 1; }
}
daemon_smoke probe
daemon_smoke sigterm

banner "9/9 clang-tidy (optional extra)"
if command -v clang-tidy > /dev/null 2>&1; then
  run cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  find src -name '*.cpp' -print0 \
    | xargs -0 -n 1 -P "$JOBS" clang-tidy -p build-tidy --quiet --warnings-as-errors='*'
else
  echo "NOTE: clang-tidy not found on PATH; skipping the optional pass" >&2
  echo "      (the in-tree flashqos_lint gate already ran in stage 2/9)." >&2
fi

banner "all checks passed"
