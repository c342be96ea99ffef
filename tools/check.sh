#!/usr/bin/env bash
# One-shot pre-PR gate: configure, build (warnings-as-errors), lint, test,
# then rebuild and re-test the concurrency surface under ThreadSanitizer —
# including a seeded schedule-fuzz pass (HF_SCHEDULE_FUZZ) that perturbs
# thread interleavings so TSan sees more than the quiet-box schedule.
# See docs/STATIC_ANALYSIS.md.
#
# Usage:
#   tools/check.sh                    # full gate (normal + TSan + fuzz phases)
#   tools/check.sh --no-sanitize      # skip the TSan phase (and its fuzz pass)
#   tools/check.sh --full-tsan        # run the ENTIRE test suite under TSan
#   tools/check.sh --asan             # add an ASan+UBSan phase as well
#   tools/check.sh --ubsan            # add a standalone UBSan phase
#                                     #   (-fno-sanitize-recover: first hit fails)
#   tools/check.sh --no-schedule-fuzz # skip the seeded schedule-fuzz pass
#
# Build trees: build-check/ (normal), build-tsan/, build-asan/, build-ubsan/
# — kept apart from the developer's build/ so the gate never clobbers
# incremental state.
#
# A failed configure or build stops the script at once. Every lint and
# test phase runs even when an earlier one failed; the failed phases are
# listed at the end and the script then exits 1.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Tests exercising the concurrency surface; the default TSan phase runs
# these (the full suite under TSan is --full-tsan). NoGradScope's grad mode
# is thread-local and crosses RunShards' pool threads; the serving
# cancellation test drives the token sink the step loop calls.
TSAN_TESTS='ThreadPool|ParallelDispatch|Determinism|Obs|Rollout|Async|Kernel|LockGraph|ScheduleFuzz|Quantile|Latency|Serving|KvCache|Protocol|ActorWorker|NoGradScope|EventDrivenCancellation'
# Subset re-run under seeded schedule perturbation: the tests that
# actually race threads (lock-graph/fuzz unit tests pin their own seeds).
FUZZ_TESTS='ThreadPool|ParallelDispatch|Rollout|Async|Kernel|Quantile|Latency|Serving|KvCache|Protocol|ActorWorker'
# Fixed seeds, not $RANDOM: a gate failure must reproduce by exporting
# the printed HF_SCHEDULE_FUZZ value.
FUZZ_SEEDS="1 7 1337"

SANITIZE=1
FULL_TSAN=0
ASAN=0
UBSAN=0
SCHEDULE_FUZZ=1
for arg in "$@"; do
  case "$arg" in
    --no-sanitize) SANITIZE=0 ;;
    --full-tsan) FULL_TSAN=1 ;;
    --asan) ASAN=1 ;;
    --ubsan) UBSAN=1 ;;
    --schedule-fuzz) SCHEDULE_FUZZ=1 ;;
    --no-schedule-fuzz) SCHEDULE_FUZZ=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

step() { echo; echo "==== $* ===="; }

# run_phase NAME CMD...: runs one lint/test phase and records it in
# FAILED_PHASES if it fails, without stopping the script.
FAILED_PHASES=()
run_phase() {
  local name="$1"
  shift
  step "$name"
  if ! "$@"; then
    echo "---- phase failed: $name"
    FAILED_PHASES+=("$name")
  fi
}

step "configure + build (HF_WERROR=ON)"
cmake -B build-check -S . -DHF_WERROR=ON >/dev/null
cmake --build build-check -j "$JOBS"

run_phase "hflint" ./build-check/tools/hflint "$ROOT"

run_phase "ctest (normal build)" \
  ctest --test-dir build-check --output-on-failure -j "$JOBS"

# Scalar-fallback phase: HF_SIMD=off forces the scalar kernel tier, so
# the SIMD<->scalar bitwise-equivalence suite re-runs on the exact path a
# non-AVX2 host would take (the in-process SetSimdOverride sweeps cover
# the same comparison, but only this catches an env-plumbing regression).
# bench_golden byte-checks the committed BENCH_*.json on that tier too,
# including the data plane's hex losses, reward, KL and per-op kernel
# counts.
run_phase "ctest kernel suite with HF_SIMD=off (scalar fallback)" \
  env HF_SIMD=off \
  ctest --test-dir build-check --output-on-failure -j "$JOBS" \
  -R 'Kernel|MatMul|LayerNorm|Tensor|Autograd|Adam|BlockAttention|Gelu|TransformerPolicy|bench_kernels_gate|bench_golden'

if [ "$SANITIZE" -eq 1 ]; then
  step "configure + build (HF_SANITIZE=thread)"
  cmake -B build-tsan -S . -DHF_WERROR=ON -DHF_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"

  export TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp halt_on_error=1 second_deadlock_stack=1"
  if [ "$FULL_TSAN" -eq 1 ]; then
    TSAN_FILTER=()
  else
    TSAN_FILTER=(-R "$TSAN_TESTS")
  fi
  run_phase "ctest under ThreadSanitizer" \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" "${TSAN_FILTER[@]}"

  if [ "$SCHEDULE_FUZZ" -eq 1 ]; then
    for seed in $FUZZ_SEEDS; do
      run_phase "ctest under TSan + schedule fuzz (HF_SCHEDULE_FUZZ=$seed)" \
        env HF_SCHEDULE_FUZZ="$seed" \
        ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R "$FUZZ_TESTS"
    done
  fi
  unset TSAN_OPTIONS
fi

if [ "$ASAN" -eq 1 ]; then
  step "configure + build (HF_SANITIZE=address)"
  cmake -B build-asan -S . -DHF_WERROR=ON -DHF_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS"

  export LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/lsan.supp"
  export UBSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/ubsan.supp print_stacktrace=1"
  run_phase "ctest under ASan+UBSan" ctest --test-dir build-asan --output-on-failure -j "$JOBS"
  unset LSAN_OPTIONS UBSAN_OPTIONS
fi

if [ "$UBSAN" -eq 1 ]; then
  step "configure + build (HF_SANITIZE=undefined)"
  cmake -B build-ubsan -S . -DHF_WERROR=ON -DHF_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$JOBS"

  export UBSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/ubsan.supp print_stacktrace=1"
  run_phase "ctest under UBSan (-fno-sanitize-recover)" \
    ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
  unset UBSAN_OPTIONS
fi

if [ "${#FAILED_PHASES[@]}" -gt 0 ]; then
  step "${#FAILED_PHASES[@]} phase(s) failed"
  printf '  %s\n' "${FAILED_PHASES[@]}"
  exit 1
fi
step "all checks passed"
