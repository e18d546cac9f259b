#!/usr/bin/env python3
"""Benchmark regression gate for BENCH_sim_throughput.json.

Usage: check_bench.py NEW.json BASELINE.json [--tolerance FRAC]

Fails (exit 1) when, relative to the committed baseline,
  - engine.checksum differs (an exact golden value: the order-sensitive
    checksum of the synthetic actor workload, so any change to the event
    engine's firing order, FIFO tie-break included, fails), or
  - end_to_end.sim_instructions_per_sec drops by more than its tolerance, or
  - launch_throughput.launches_per_sec drops by more than its tolerance, or
  - end_to_end.events_per_inst RISES by more than its tolerance (this
    metric is lower-is-better: it counts scheduled events per simulated
    instruction, is deterministic, and guards the fused access path), or
  - end_to_end.packets_per_miss RISES by more than its tolerance (pooled
    packets per forwarded cache miss; ~1.0 on the single-packet miss
    path), or end_to_end.dtlb_fast_hit_rate DROPS by more than its
    tolerance (both deterministic; see docs/performance.md), or
  - fault_mode.completed_launch_ratio drops, or
    fault_mode.link_retries_per_launch rises, by more than its tolerance
    (both come from a deterministic fault-injection run at a fixed seed
    and 1e-4 bit-error rate; see docs/robustness.md), or
  - parallel.speedup_vs_serial drops by more than the wall-clock
    tolerance, or parallel.checksums_match flips to false (the
    multithreaded partitioned engine must replay the serial schedule
    bit-exactly).

A gated metric missing from the baseline (e.g. the first run after the
metric was introduced) is skipped with a note; missing from the NEW result
it fails — the benchmark must keep reporting every gated headline.

Tolerances are per metric. Deterministic simulated metrics
(events_per_inst, launches_per_sec) get the strict 10% bar — any movement
is a structural change, never noise. Wall-clock metrics
(sim_instructions_per_sec, speedup_vs_serial) get a wider 25% bar: on the
shared boxes this repo is benched on, an *unchanged* tree swings by more
than 10% between runs (hypervisor neighbours, frequency steps), so the
strict bar flakes without catching anything the deterministic gates
miss. --tolerance overrides the wall-clock bar only.
"""

import argparse
import json
import sys


# Gated headline metrics: dotted path -> (direction, class). "higher"
# fails on a drop beyond tolerance; "lower" fails on a rise beyond it.
# "det" metrics are deterministic (simulated time / event counts); "wall"
# metrics are host wall-clock and get the wider noise bar.
GATED_PATHS = {
    "end_to_end.sim_instructions_per_sec": ("higher", "wall"),
    "launch_throughput.launches_per_sec": ("higher", "det"),
    "end_to_end.events_per_inst": ("lower", "det"),
    # Single-packet miss path: pooled MemPackets spent per forwarded cache
    # miss (deterministic; ~1.0 once fills ride the original packet's hop
    # stack — a rise means a completion-interposer or carrier allocation
    # crept back into the miss path).
    "end_to_end.packets_per_miss": ("lower", "det"),
    # D-TLB last-translation fast path (two MRU slots in front of the
    # set-associative probe): deterministic hit share of all D-TLB hits;
    # a drop means the fast path stopped covering the streaming pattern.
    "end_to_end.dtlb_fast_hit_rate": ("higher", "det"),
    # Deterministic fault-injection run (fixed seed, 1e-4 bit-error
    # rate): the completed-launch ratio must not sink (CXL replay absorbs
    # CRC faults) and the replay count per launch must not creep up.
    "fault_mode.completed_launch_ratio": ("higher", "det"),
    "fault_mode.link_retries_per_launch": ("lower", "det"),
    # Partitioned parallel engine (8-device OPT-30B shard). The speedup is
    # host wall-clock — ~1.0 on a single-core runner, >1 with real cores —
    # while checksums_match is an exact determinism invariant: serial and
    # multithreaded runs must produce bit-identical schedules. Booleans
    # gate through the same machinery (true=1, false=0, so any flip to
    # false is a 100% regression).
    "parallel.speedup_vs_serial": ("higher", "wall"),
    "parallel.checksums_match": ("higher", "det"),
    # Open-loop overload / QoS run (deterministic traffic harness, fixed
    # seeds; see docs/robustness.md "Overload protection"). Capacity must
    # not sink, the 70%-of-knee tail must not inflate, overload must not
    # shed a larger fraction, and the worst tenant's progress floor must
    # hold.
    "qos.knee_offered_load": ("higher", "det"),
    "qos.p99_sim_ns": ("lower", "det"),
    "qos.shed_ratio_overload": ("lower", "det"),
    "qos.min_progress_ratio": ("higher", "det"),
}

# Golden values that must match the baseline exactly.
EXACT_PATHS = ("engine.checksum",)

DETERMINISTIC_TOLERANCE = 0.10


def lookup(doc, path):
    """Value at dotted *path* in *doc*, or None when absent."""
    node = doc
    try:
        for key in path.split("."):
            node = node[key]
    except (KeyError, TypeError):
        return None
    return node


def gated_metrics(doc):
    """Gated headline metrics present in *doc* (dotted path -> value)."""
    out = {}
    for path in GATED_PATHS:
        value = lookup(doc, path)
        if value is not None:
            out[path] = float(value)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new_json")
    parser.add_argument("baseline_json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop for wall-clock "
                             "metrics (default 0.25; deterministic "
                             "metrics always use 0.10)")
    args = parser.parse_args()

    with open(args.new_json) as f:
        new = json.load(f)
    with open(args.baseline_json) as f:
        base = json.load(f)

    failures = []

    for path in EXACT_PATHS:
        base_v, new_v = lookup(base, path), lookup(new, path)
        if base_v is None:
            print(f"[SKIP] {path}: not in baseline (new metric)")
        elif new_v is None:
            failures.append(f"{path} missing from the new result")
        elif new_v != base_v:
            print(f"[FAIL] {path}: baseline {base_v} -> new {new_v} (exact)")
            failures.append(f"{path} changed (baseline {base_v}, new "
                            f"{new_v}; must match exactly)")
        else:
            print(f"[OK] {path}: baseline {base_v} -> new {new_v} (exact)")
    # Hard determinism gate, independent of the baseline: a parallel run
    # whose checksum diverges from the serial one is wrong even on the
    # very first run after the metric was introduced.
    if not new.get("parallel", {}).get("checksums_match", True):
        failures.append("parallel.checksums_match is false: the "
                        "multithreaded engine diverged from the serial "
                        "schedule")

    new_m = gated_metrics(new)
    base_m = gated_metrics(base)
    for name in new_m:
        if name not in base_m:
            print(f"[SKIP] {name}: not in baseline (new metric)")
    for name, base_v in base_m.items():
        if name not in new_m:
            failures.append(f"{name} missing from the new result")
            continue
        new_v = new_m[name]
        if base_v <= 0:
            continue
        direction, kind = GATED_PATHS[name]
        tolerance = (DETERMINISTIC_TOLERANCE if kind == "det"
                     else args.tolerance)
        # Normalize so "regression" is always a positive fraction.
        if direction == "higher":
            regression = (base_v - new_v) / base_v
        else:
            regression = (new_v - base_v) / base_v
        status = "OK" if regression <= tolerance else "FAIL"
        print(f"[{status}] {name}: baseline {base_v:.4g} -> new {new_v:.4g} "
              f"({(new_v - base_v) / base_v * 100.0:+.1f}%, "
              f"{kind} tolerance {tolerance * 100.0:.0f}%)")
        if regression > tolerance:
            worse = "dropped" if direction == "higher" else "rose"
            failures.append(
                f"{name} {worse} {regression * 100.0:.1f}% "
                f"(baseline {base_v:.4g}, new {new_v:.4g}, "
                f"tolerance {tolerance * 100.0:.0f}%)")

    if failures:
        print("\nBENCH REGRESSION GATE FAILED:", file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
