#!/usr/bin/env python3
"""Repository benchmark: build the ledger program and run one workload.

    python3 benchmark/run.py --workload olap_scan --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --selftest

Run from the repository root. The first run configures and builds the
simulator sources and the ledger program (benchmark/CMakeLists.txt) into
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the
build. For one workload, the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer ledger with --trace 1
(whose spans are also written under <build dir>/spans/). With --workload
all it prints one such line per workload, each also naming it. The exit
code is 0 only when the build succeeded, every output checked out and
every metric was emitted.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_declaration():
    """BENCHMARK.json: the workload names and each metric's unit."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            declared = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"benchmark: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)
    workloads = tuple(w["name"] for w in declared["workloads"])
    units = {key: {m["name"]: m["unit"] for m in declared[key]}
             for key in ("end_to_end", "per_layer")}
    return workloads, units["end_to_end"], units["per_layer"]


WORKLOADS, END_TO_END, PER_LAYER = load_declaration()

# A run must end within 180 s; the first one in a checkout also builds,
# which has its own, longer limit.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700


def fail(msg):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the ledger program; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "system", "system.cc")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = os.path.join(out, "ledger")
    if not os.path.isfile(exe):
        fail("build produced no ledger binary")
    return exe


def run_ledger(exe, workload, seed, seconds, trace, quick=False):
    """Run one workload; return (exit code, parsed result line)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_LIMIT_S} s")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{workload} printed no result (exit code {r.returncode})")
    try:
        return r.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed an unreadable result: {lines[-1]!r}")


def check_metrics(result, trace):
    """Every declared metric present, with its unit, as a finite number."""
    want = PER_LAYER if trace else END_TO_END
    got = result.get("metrics", {})
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metric set differs: missing {missing}, unexpected {extra}")
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit:
            fail(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{name}: value {v!r} is not a finite number")
    return got


def selftest(exe):
    """Quick-scale runs showing each workload stresses its layers."""
    layer = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            code, res = run_ledger(exe, w, 7, 1.0, trace, quick=True)
            if code != 0 or res.get("correct") is not True:
                fail(f"selftest: {w} trace={trace} failed: {res}")
            got = check_metrics(res, trace)
            if trace:
                layer[w] = {k: v["value"] for k, v in got.items()}
            print(f"selftest: {w} trace={trace} ok "
                  f"({res['attempted']} ops)", file=sys.stderr)
    olap, kvs, serve = (layer[w] for w in
                        ("olap_scan", "kvs_ycsb_a", "serve_open_4dev"))
    checks = [
        ("olap sim.events_per_inst < kvs",
         olap["sim.events_per_inst"] < kvs["sim.events_per_inst"]),
        ("serve host.rejected + host.shed > 0",
         serve["host.rejected"] + serve["host.shed"] > 0),
        ("olap isa.functional_pct > kvs",
         olap["isa.functional_pct"] > kvs["isa.functional_pct"]),
    ]
    for name, ok in checks:
        print(f"selftest: {name}: {'ok' if ok else 'FAILED'}",
              file=sys.stderr)
    if not all(ok for _, ok in checks):
        sys.exit(1)
    print(json.dumps({"selftest": "ok"}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs (self-test scale)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    exe = build()
    if args.selftest:
        selftest(exe)
        return
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        code, res = run_ledger(exe, name, args.seed, args.seconds,
                               args.trace, args.quick)
        out = {
            "correct": res.get("correct") is True and code == 0,
            "attempted": int(res["attempted"]),
            "failed": int(res["failed"]),
            "metrics": check_metrics(res, args.trace),
        }
        if len(names) > 1:
            out = {"workload": name, **out}
        print(json.dumps(out))
        ok = ok and out["correct"] and out["attempted"] >= 1 and \
            out["failed"] == 0
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
