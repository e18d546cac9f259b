#!/usr/bin/env bash
# Run the simulator-throughput microbenchmark and record the result as
# BENCH_sim_throughput.json in the repository root, so the perf trajectory
# is tracked across PRs (schema: docs/performance.md).
#
# After the run, scripts/check_bench.py gates the result against the
# last committed BENCH_sim_throughput.json (from git HEAD): a changed
# engine checksum, or a headline metric past its tolerance, fails the
# script.
#
# Usage: bench/run_bench.sh [build_dir]
#   build_dir defaults to ./build; the benchmark is built if missing.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bin="$build_dir/bench/micro_sim_throughput"

if [[ ! -x "$bin" ]]; then
    cmake -B "$build_dir" -S "$repo_root"
    cmake --build "$build_dir" --target micro_sim_throughput -j
fi

# Snapshot the committed baseline BEFORE overwriting the tracked file.
baseline=""
if command -v git > /dev/null 2>&1 &&
   git -C "$repo_root" rev-parse HEAD > /dev/null 2>&1; then
    baseline="$(mktemp)"
    if ! git -C "$repo_root" show HEAD:BENCH_sim_throughput.json \
            > "$baseline" 2> /dev/null; then
        rm -f "$baseline"
        baseline=""
    fi
fi

"$bin" --out="$repo_root/BENCH_sim_throughput.json"

# One-line wall-clock breakdown of the end-to-end hot paths (from the
# instrumented pass the benchmark runs alongside the gated medians), so
# the issue / fill / functional split is visible per run without a
# profiler.
if command -v python3 > /dev/null 2>&1; then
    python3 - "$repo_root/BENCH_sim_throughput.json" <<'PYEOF' || true
import json, sys
doc = json.load(open(sys.argv[1]))
bd = doc.get("breakdown")
if bd:
    # other_pct is emitted by the benchmark (residual outside the
    # instrumented scopes); derive it only for pre-schema baselines.
    other = bd.get("other_pct",
                   100.0 - bd["issue_pct"] - bd["fill_pct"]
                   - bd["functional_pct"])
    print("hot-path wall breakdown: issue %.1f%% | fill %.1f%% | "
          "functional %.1f%% | other %.1f%% (instrumented e2e, %.3fs)"
          % (bd["issue_pct"], bd["fill_pct"], bd["functional_pct"],
             other, bd["wall_seconds"]))
ps = doc.get("parallel")
if ps:
    print("parallel engine (%s, %d devices): serial %.3fs | threads=%d "
          "%.3fs | speedup %.2fx | checksums %s"
          % (ps["workload"], ps["devices"], ps["serial_wall_seconds"],
             ps["threads"], ps["parallel_wall_seconds"],
             ps["speedup_vs_serial"],
             "match" if ps["checksums_match"] else "MISMATCH"))
fm = doc.get("fault_mode")
if fm:
    print("fault mode (BER %g, fixed seed): completed %.1f%% of %d "
          "launches | link replays %d (%.2f/launch) | stream relaunches %d"
          % (fm["bit_error_rate"], fm["completed_launch_ratio"] * 100.0,
             fm["launches"], fm["link_retries"],
             fm["link_retries_per_launch"], fm["stream_relaunches"]))
qos = doc.get("qos")
if qos:
    print("qos (open-loop, deterministic): capacity %.1f Mreq/s | "
          "p99@70%%knee %d ns | overload shed %.1f%% | min tenant "
          "progress %.1f%% | typed accounting %s"
          % (qos["knee_offered_load"] / 1e6, qos["p99_sim_ns"],
             qos["shed_ratio_overload"] * 100.0,
             qos["min_progress_ratio"] * 100.0,
             "ok" if qos["typed_accounting"] else "BROKEN"))
PYEOF
fi

if [[ -n "$baseline" ]]; then
    status=0
    if command -v python3 > /dev/null 2>&1; then
        python3 "$repo_root/scripts/check_bench.py" \
            "$repo_root/BENCH_sim_throughput.json" "$baseline" || status=$?
    else
        echo "warning: python3 not found; skipping bench gate" >&2
    fi
    rm -f "$baseline"
    exit $status
else
    echo "warning: no committed baseline; skipping bench gate" >&2
fi
