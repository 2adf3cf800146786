#!/usr/bin/env bash
# Smoke check: ASan/UBSan build + full test suite, then a standalone
# strict-UBSan build over the rep/sweep surface and the text front ends,
# then a TSan build over the engine's concurrency stress tests.
#
#   tools/check.sh [--no-tsan | --tsan-only] [build-dir]
#
# --no-tsan    lints + ASan suite + UBSan sweep, skip the TSan leg
# --tsan-only  just the TSan leg (plus the cheap lints)
#
# The two flags exist so CI can run the sanitizer legs as separate jobs
# (.github/workflows/ci.yml): the TSan build shares nothing with the
# ASan/UBSan trees, so splitting it halves the critical path.  With no
# flag, everything runs — the pre-push default.
#
# Uses build-asan/ (and build-ubsan/, build-tsan/) by default so it never
# disturbs the regular build/.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

run_asan=1
run_tsan=1
case "${1:-}" in
  --no-tsan)   run_tsan=0; shift ;;
  --tsan-only) run_asan=0; shift ;;
esac
build_dir="${1:-$repo_root/build-asan}"

# Cheap static checks first: every registered metric must be documented,
# and every WAL record type must have a documented on-disk meaning.
"$repo_root/tools/lint_metrics.sh"
"$repo_root/tools/lint_wal.sh"

if [[ "$run_asan" == 1 ]]; then
  cmake -B "$build_dir" -S "$repo_root" -DCALDB_SANITIZE=address
  cmake --build "$build_dir" -j "$(nproc)"

  # The randomized differential harness (sweep kernels vs their naive
  # references, ~18k operator applications) is the densest memory-error
  # surface — run it by name first so a failure there is attributed clearly.
  ctest --test-dir "$build_dir" -R 'sweep_test' --output-on-failure

  # Durability fault injection under ASan: a child engine (fsync=always) is
  # SIGKILLed mid-burst and recovered; every acknowledged statement must
  # survive, torn tails truncate, missed rule firings happen exactly once.
  ctest --test-dir "$build_dir" -R '^wal_fault_test$' --output-on-failure

  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

  # Standalone UBSan pass (-fno-sanitize-recover=all, so UB fails the test
  # instead of printing a "runtime error" the ASan leg forgives) over the
  # shared-rep machinery and the text front ends.  The CSR offset
  # arithmetic and span views in calendar_rep/sweep are where a stale index
  # turns into UB before it turns into a crash; the scanner and the three
  # parsers on it are where untrusted text meets integer arithmetic, and
  # the literal lifter turns that text into bind lists.  The foreach
  # kernel's run and slice index arithmetic lives in the sweep.h template,
  # so the algebra, calendar and paper-example suites that instantiate it
  # run here too.  Every granule conversion between units (windows,
  # `today`, rescaling, next-fire anchors) runs through IntervalToUnit,
  # whose skip-zero point arithmetic the evaluator, next-fire and
  # granularity-sweep suites drive on both sides of the epoch; the
  # catalog suite's lifespan differential drives the lifespan clamp's
  # conversions the same way.
  ubsan_dir="$repo_root/build-ubsan"
  ubsan_tests=(sweep_test calendar_rep_test algebra_test calendar_test
               foreach_paper_examples_test lexer_test parser_test query_test
               pattern_test random_expression_test front_end_fuzz_test
               literal_lifting_test evaluator_test next_fire_test
               granularity_sweep_test catalog_test)
  cmake -B "$ubsan_dir" -S "$repo_root" -DCALDB_SANITIZE=undefined
  cmake --build "$ubsan_dir" -j "$(nproc)" --target "${ubsan_tests[@]}"
  ubsan_regex="^($(IFS='|'; echo "${ubsan_tests[*]}"))\$"
  ctest --test-dir "$ubsan_dir" -R "$ubsan_regex" --output-on-failure
fi

if [[ "$run_tsan" == 1 ]]; then
  # TSan pass over the concurrent engine: N writer + M reader sessions
  # racing DBCRON, plus the per-table lock stress tests (readers on one
  # table progressing under a writer hammering another —
  # tests/engine/engine_concurrency_test.cc), the tracer's per-thread
  # rings: writers finishing spans and rotating chunks while another
  # thread snapshots and clears (tests/obs/trace_test.cc), and sessions
  # evaluating one shared cached plan while another session redefines a
  # calendar it inlines, or reading a calendar with a lifespan by name and
  # by next firing while it is redefined (tests/catalog/plan_cache_test.cc).
  # TSan cannot combine with ASan, so it gets its own tree; any data race in the
  # Engine/LockManager/Session/ThreadPool/catalog/Tracer locking shows up
  # here as a hard failure.
  tsan_dir="$repo_root/build-tsan"
  tsan_tests=(engine_concurrency_test trace_test plan_cache_test)
  cmake -B "$tsan_dir" -S "$repo_root" -DCALDB_SANITIZE=thread
  cmake --build "$tsan_dir" -j "$(nproc)" --target "${tsan_tests[@]}"
  tsan_regex="^($(IFS='|'; echo "${tsan_tests[*]}"))\$"
  TSAN_OPTIONS="halt_on_error=1" \
      ctest --test-dir "$tsan_dir" -R "$tsan_regex" --output-on-failure
fi
