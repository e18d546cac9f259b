#!/usr/bin/env bash
# One-command CI gate: configure + build (warnings are errors, including
# -Wextra/-Wshadow), the ndp-lint static-analysis pass (tools/ndp_lint,
# driven by the exported compile_commands.json), ctest (which holds the
# exact deterministic perf goldens), the repository benchmark's
# self-test, then a sanitizer smoke pass
# (-DSANITIZE=address,undefined) over the
# stream-API tests and the full-stack quickstart example, and a
# ThreadSanitizer smoke pass over the multithreaded partitioned-engine
# tests plus the open-loop overload harness (-DSANITIZE=thread,
# M2NDP_THREADS=2).
#
# Usage: scripts/ci.sh [--no-sanitize] [--no-bench]
#   --no-sanitize  skip the sanitizer smoke trees (ASan/UBSan and TSan)
#   --no-bench     skip the benchmark/run.py self-test
#
# Environment:
#   BUILD_DIR           main build tree     (default: <repo>/build)
#   SANITIZE_BUILD_DIR  sanitizer tree      (default: <repo>/build-sanitize)
#   TSAN_BUILD_DIR      TSan tree           (default: <repo>/build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
san_dir="${SANITIZE_BUILD_DIR:-$repo_root/build-sanitize}"
tsan_dir="${TSAN_BUILD_DIR:-$repo_root/build-tsan}"

run_sanitize=1
run_selftest=1
for arg in "$@"; do
    case "$arg" in
      --no-sanitize) run_sanitize=0 ;;
      --no-bench) run_selftest=0 ;;
      *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

jobs="$(nproc 2> /dev/null || echo 4)"

echo "==> configure + build ($build_dir, warnings are errors)"
cmake -B "$build_dir" -S "$repo_root" -DWERROR=ON
cmake --build "$build_dir" -j "$jobs"

echo "==> ndp-lint (fixtures + src over compile_commands.json)"
python3 "$repo_root/tools/ndp_lint/check_lint.py" fixtures
python3 "$repo_root/tools/ndp_lint/check_lint.py" src \
    --compile-commands "$build_dir/compile_commands.json"

echo "==> ctest"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

if [[ "$run_selftest" == 1 ]]; then
    # Quick-scale run of the repository benchmark's three workloads:
    # checks every workload's outputs, that each declared metric is
    # emitted with its unit, and the cross-workload sanity checks.
    echo "==> repository benchmark self-test"
    (cd "$repo_root" && python3 benchmark/run.py --selftest)
fi

if [[ "$run_sanitize" == 1 ]]; then
    echo "==> sanitizer smoke (-DSANITIZE=address,undefined)"
    cmake -B "$san_dir" -S "$repo_root" -DSANITIZE=address,undefined
    cmake --build "$san_dir" -j "$jobs" --target quickstart
    # The gtest-based stream-API suite only exists when GTest is
    # installed (CMake warns and skips test targets otherwise). Probe the
    # registered tests rather than the build exit code, so a genuine
    # sanitizer-tree compile failure still fails CI.
    if ctest --test-dir "$san_dir" -N -R '^test_runtime_api$' |
        grep -q 'Total Tests: 1'; then
        cmake --build "$san_dir" -j "$jobs" --target test_runtime_api
        # Fault-storm smoke: the fault-injection suite (link faults,
        # kernel traps, watchdog kills, device loss) under ASan/UBSan
        # shakes out lifetime bugs on the error paths.
        cmake --build "$san_dir" -j "$jobs" --target test_faults
        smoke_filter='test_runtime_api|test_faults|smoke_quickstart'
    else
        echo "note: GTest unavailable; sanitizer smoke covers quickstart only"
        smoke_filter='smoke_quickstart'
    fi
    ctest --test-dir "$san_dir" --output-on-failure -R "$smoke_filter"

    echo "==> ThreadSanitizer smoke (-DSANITIZE=thread, M2NDP_THREADS=2)"
    # The partitioned engine runs one executor thread per expander; TSan
    # over the integration + fault suites with 2 worker threads covers
    # the mailbox handoff, barrier, and the shared pool/memory paths.
    cmake -B "$tsan_dir" -S "$repo_root" -DSANITIZE=thread
    if ctest --test-dir "$tsan_dir" -N -R '^test_integration$' |
        grep -q 'Total Tests: 1'; then
        cmake --build "$tsan_dir" -j "$jobs" --target test_integration
        cmake --build "$tsan_dir" -j "$jobs" --target test_faults
        M2NDP_THREADS=2 ctest --test-dir "$tsan_dir" --output-on-failure \
            -R 'test_integration|test_faults'
        # Open-loop overload smoke: the multi-tenant traffic harness
        # (saturating open-loop arrivals, admission rejections, deadline
        # shedding, WRR priorities) drives the partitioned engine through
        # its contended paths; run it under TSan with 2 worker threads.
        cmake --build "$tsan_dir" -j "$jobs" --target test_workloads
        M2NDP_THREADS=2 "$tsan_dir/test_workloads" \
            --gtest_filter='Traffic.*'
    else
        echo "note: GTest unavailable; skipping TSan smoke"
    fi
fi

echo "ci.sh: all gates passed"
