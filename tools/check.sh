#!/usr/bin/env bash
# Build and test the project under several configs: a plain RelWithDebInfo
# configure, an ASan+UBSan configure (-DTANGO_SANITIZE=ON), a TSan
# configure (-DTANGO_TSAN=ON) that runs only the concurrency-touching tests
# (thread pool, MCMF reuse, harness fan-out, TangoScope emission, sharded
# engine, and the A2C learner's split backward on the shared learner pool:
# LearnerPins, A2cAgent, BackwardSteps), a TangoAudit configure
# (-DTANGO_AUDIT=ON) that runs the full suite plus the perf_sched and
# perf_sim smokes with every runtime invariant checker live, a TangoScope
# configure (-DTANGO_SCOPE=ON) that runs the full suite plus a traced
# chaos_demo whose exported Chrome trace must parse as JSON, and a
# UBSan-only configure (-DTANGO_UBSAN=ON) that runs
# the full suite without ASan's shadow memory. The no-build gates: `lint`
# runs tools/lint.py plus its fixture regression suite, `vet` runs the
# TangoVet static analyzer (tools/vet) over src/ plus its fixture
# regression suite, and `static` collapses every static gate (lint,
# clang-format when present, vet) into one entry point. All selected
# configs must pass for check.sh to exit 0.
# Run from anywhere; paths are relative to the repo root.
#
#   $ tools/check.sh            # all configs + static gates
#   $ tools/check.sh plain      # only the plain config
#   $ tools/check.sh sanitize   # only the ASan+UBSan config
#   $ tools/check.sh ubsan      # only the UBSan-only config (full suite)
#   $ tools/check.sh tsan       # only the TSan config (parallel-path tests)
#   $ tools/check.sh audit      # only the TANGO_AUDIT config (full suite)
#   $ tools/check.sh scope      # only the TANGO_SCOPE config (+trace smoke)
#   $ tools/check.sh lint       # only the project lint (+ lint_test.py)
#   $ tools/check.sh vet        # only the TangoVet analyzer (+ vet_test.py)
#   $ tools/check.sh static     # lint + clang-format + vet, no build
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
what="${1:-all}"
case "$what" in
  all|plain|sanitize|ubsan|tsan|audit|scope|lint|vet|static) ;;
  *)
    echo "usage: tools/check.sh [all|plain|sanitize|ubsan|tsan|audit|scope|" \
         "lint|vet|static]" >&2
    exit 2
    ;;
esac

run_config() {
  local name="$1" build_dir="$2"
  shift 2
  local ctest_args=()
  while [[ $# -gt 0 && "$1" != -D* ]]; do
    ctest_args+=("$1")
    shift
  done
  echo "== [$name] configure =="
  cmake -S "$repo_root" -B "$build_dir" "$@" >/dev/null
  echo "== [$name] build =="
  cmake --build "$build_dir" -j "$jobs"
  echo "== [$name] ctest =="
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
    "${ctest_args[@]}"
}

if [[ "$what" == "all" || "$what" == "plain" ]]; then
  run_config plain "$repo_root/build"
  # Sharded-digest identity + zero-allocation asserts, no timing gates. Run
  # from the build dir so a smoke run never touches a committed BENCH_*.json.
  echo "== [plain] perf_sim --smoke =="
  (cd "$repo_root/build" && bench/perf_sim --smoke)
  # TangoStorm invariants: per-seed determinism, per-cluster union ==
  # superposed scenario, arrival ordering, interference-off exact
  # identity, monotone inflation. Exit 1 on any violation, writes nothing.
  echo "== [plain] abl_scenarios --smoke =="
  (cd "$repo_root/build" && bench/abl_scenarios --smoke)
  # The paper's §7.1 D-VPA claims on the shared ordered-write routine:
  # modeled latencies, not the wall clock, so the checks are exact. Exit 1
  # on any failed check.
  echo "== [plain] tab_dvpa_latency =="
  (cd "$repo_root/build" && bench/tab_dvpa_latency)
fi

if [[ "$what" == "all" || "$what" == "sanitize" ]]; then
  # halt_on_error keeps a UBSan report from being a silent warning.
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
  run_config sanitize "$repo_root/build-asan" -DTANGO_SANITIZE=ON
fi

if [[ "$what" == "all" || "$what" == "ubsan" ]]; then
  # UBSan without ASan: no shadow memory, so undefined-behavior coverage
  # composes with near-native timing (the sanitize config already pairs
  # the two for memory-error coverage).
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
  run_config ubsan "$repo_root/build-ubsan" -DTANGO_UBSAN=ON
fi

if [[ "$what" == "all" || "$what" == "tsan" ]]; then
  # TSan is ~10x slower, so restrict it to the tests that exercise the
  # threaded paths; the plain/sanitize configs already cover the rest.
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
  # LearnerPins, A2cAgent and BackwardSteps drive the A2C update's step
  # fan-out, parameter replay and Adam tiles on the learner pool, two
  # learners at once included.
  run_config tsan "$repo_root/build-tsan" \
    -R 'ThreadPool|DssLc|McmfReuse|Harness|Experiment|Scope|Shard|Mailbox|LearnerPins|A2cAgent|BackwardSteps' \
    -DTANGO_TSAN=ON -DTANGO_SCOPE=ON
  # The sharded engine's epoch fan-out under TSan: the mailbox exchange and
  # the per-shard slabs are the only cross-thread surfaces, and the smoke
  # sweep drives them with 2/4/8 shards on a real thread pool.
  echo "== [tsan] sharded perf_sim --smoke =="
  (cd "$repo_root/build-tsan" && bench/perf_sim --smoke)
fi

if [[ "$what" == "all" || "$what" == "audit" ]]; then
  # Full suite with every AUDIT_CHECK live: any invariant violation aborts
  # the offending test with a structured report.
  run_config audit "$repo_root/build-audit" -DTANGO_AUDIT=ON -DTANGO_WERROR=ON
  # DSS-LC smoke: one allocation per steady-state round with the greedy
  # star fill's audit certificate live on every G_k / Ĝ'_k fill. Run from
  # the build dir so the smoke run never touches a committed BENCH_*.json.
  echo "== [audit] perf_sched --smoke =="
  (cd "$repo_root/build-audit" && bench/perf_sched --smoke)
  # A whole system outside gtest with the state-sync certificates
  # (sync.version_monotonic, sync.delta_identity) and SampleMetrics' usage
  # rescan (metrics.usage_aggregate) live at every sync and sample.
  echo "== [audit] perf_sim --smoke =="
  (cd "$repo_root/build-audit" && bench/perf_sim --smoke)
fi

if [[ "$what" == "all" || "$what" == "scope" ]]; then
  # Full suite with TangoScope compiled in, then a traced chaos_demo run:
  # the exported Chrome trace must at minimum parse as JSON (the chain-
  # reconstruction content checks live in tests/scope_test.cpp).
  run_config scope "$repo_root/build-scope" -DTANGO_SCOPE=ON -DTANGO_WERROR=ON
  echo "== [scope] traced chaos_demo =="
  (cd "$repo_root/build-scope" && examples/chaos_demo >/dev/null)
  python3 -m json.tool "$repo_root/build-scope/tango_chaos_trace.json" \
    >/dev/null
  echo "trace JSON ok"
fi

if [[ "$what" == "all" || "$what" == "lint" || "$what" == "static" ]]; then
  echo "== [lint] tools/lint.py =="
  python3 "$repo_root/tools/lint.py"
  echo "== [lint] tools/lint_test.py =="
  python3 "$repo_root/tools/lint_test.py"
fi

if [[ "$what" == "static" ]]; then
  # The lint's own format check already covers clang-format when present;
  # repeat it here explicitly so `static` fails loudly rather than skipping
  # silently when the tool exists but the tree is unformatted.
  if command -v clang-format >/dev/null 2>&1; then
    echo "== [static] clang-format --dry-run =="
    find "$repo_root/src" "$repo_root/tests" "$repo_root/bench" \
         "$repo_root/examples" -name '*.h' -o -name '*.cpp' \
      | xargs clang-format --dry-run -Werror
  else
    echo "== [static] clang-format skipped (not on PATH) =="
  fi
fi

if [[ "$what" == "all" || "$what" == "vet" || "$what" == "static" ]]; then
  # TangoVet prefers the clang frontend when build/compile_commands.json
  # exists (every configure exports it) and degrades to the token frontend
  # otherwise; both must leave the tree clean.
  echo "== [vet] tools/vet/tangovet.py =="
  python3 "$repo_root/tools/vet/tangovet.py" --root "$repo_root"
  echo "== [vet] tools/vet/vet_test.py =="
  python3 "$repo_root/tools/vet/vet_test.py"
fi

echo "== all checks passed =="
