/**
 * @file
 * Simulator-throughput microbenchmark: measures *host-side* performance of
 * the simulation core, not modeled-hardware behaviour.
 *
 * Two sections:
 *
 *  1. Event engine: a synthetic open system of self-rescheduling actors
 *     (mixed near/far delays, same-tick fan-out) on the event queue.
 *     Reports events/sec and an order-sensitive checksum of the firing
 *     sequence; scripts/check_bench.py gates the checksum against the
 *     committed golden value, so any change to the engine's event order
 *     (FIFO tie-break included) fails the bench.
 *
 *  2. End-to-end: the Fig. 4 vecadd kernel on a Table IV system, reporting
 *     simulated-instructions/sec (median of three runs), the
 *     sim-time/host-time ratio, the D-TLB last-translation fast-path hit
 *     rate, and — via a counting operator new in this binary — heap
 *     allocations per simulated instruction (includes one-time system
 *     construction; the steady-state path itself is allocation-free, see
 *     tests/test_alloc.cc).
 *
 * Output is JSON (schema documented in docs/performance.md), written to
 * stdout and to --out=<path> (default BENCH_sim_throughput.json) so the
 * perf trajectory can be tracked across PRs.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

// Counting operator new (common/counting_new.hh): measures allocations
// per simulated instruction on the end-to-end path (zero-allocation
// access-path tracking).
#include <thread>

#include "cache/cache.hh"
#include "common/counting_new.hh"
#include "common/hotpath_timer.hh"
#include "ndp/tlb.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "workloads/opt.hh"
#include "workloads/traffic.hh"

namespace m2ndp {
namespace {

// ---------------------------------------------------------------------
// Synthetic actor workload on the event engine.
// ---------------------------------------------------------------------

/** Deterministic xorshift64* PRNG (identical stream on every run). */
struct Lcg
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1Dull;
    }
};

struct EngineResult
{
    double wall_seconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t checksum = 0;
};

/** Shared state of one engine run; actors capture only {Ctx*, id}, the
 *  same shape (a this-pointer plus a word) as real scheduling sites. */
struct Ctx
{
    EventQueue eq;
    std::uint64_t executed = 0;
    std::uint64_t checksum = 0;
    std::uint64_t target = 0;
    Lcg rng{0x9E3779B97F4A7C15ull};
};

void
actorStep(Ctx *c, unsigned id, std::uint64_t s0, std::uint64_t s1,
          std::uint64_t s2)
{
    c->checksum = c->checksum * 31 + (c->eq.now() ^ id) + (s0 ^ s1 ^ s2);
    ++c->executed;
    if (c->executed >= c->target)
        return;
    std::uint64_t r = c->rng.next();
    Tick delay;
    switch (r & 15) {
      case 0:
        delay = 0; // same-tick fan-out: exercises the FIFO tie-break
        break;
      case 1:
        delay = 50'000 + (r >> 8) % 3'000'000; // sparse far-future event
        break;
      default:
        delay = 100 + (r >> 8) % 2'000; // dense near-term traffic
        break;
    }
    // The capture shape (a pointer plus ~4 words of state, ~40 B) mirrors
    // the real scheduling sites in this codebase — e.g. the NDP unit's
    // load-completion callback captures {this, slot, blocking, op,
    // instance, issued_at}. This is what the engine must carry per event.
    std::uint64_t n0 = r, n1 = r ^ id, n2 = s0 + s2;
    c->eq.scheduleAfter(
        delay, [c, id, n0, n1, n2] { actorStep(c, id, n0, n1, n2); });
}

EngineResult
runActorWorkload(unsigned actors, std::uint64_t target_events)
{
    auto ctx = std::make_unique<Ctx>();
    ctx->target = target_events;
    Ctx *c = ctx.get();

    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < actors; ++i)
        c->eq.schedule(i, [c, i] { actorStep(c, i, i, 0, 0); });
    c->eq.run();
    auto t1 = std::chrono::steady_clock::now();

    EngineResult res;
    res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    res.events = c->executed;
    res.checksum = c->checksum;
    return res;
}

// ---------------------------------------------------------------------
// End-to-end section: Fig. 4 vecadd on a Table IV system.
// ---------------------------------------------------------------------

const char *kVecAdd = R"(
    .name vecadd
    vsetvli x0, x0, e32, m1
    li  x3, %args
    ld  x4, 0(x3)
    ld  x5, 8(x3)
    vle32.v v1, (x1)
    add x6, x4, x2
    vle32.v v2, (x6)
    vfadd.vv v3, v1, v2
    add x7, x5, x2
    vse32.v v3, (x7)
)";

struct EndToEndResult
{
    double wall_seconds = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t uthreads = 0;
    double sim_seconds = 0.0;
    TlbStats dtlb;
    std::uint64_t heap_allocs = 0;
    std::uint64_t events_scheduled = 0;
    /** Aggregated NDP-unit stats (scheduler observability headline). */
    NdpUnitStats units;
    /** Single-packet miss path: pooled packets spent per forwarded cache
     *  miss, summed over every L1d and L2 slice (headline expects ~1 —
     *  the rider itself — now that fills ride the original packet). */
    std::uint64_t miss_forwards = 0;
    std::uint64_t miss_path_packets = 0;
};

// ---------------------------------------------------------------------
// Launch-throughput section: sustained M2func launches/sec through the
// stream API (simulated time, so the metric is deterministic and can be
// gated like a hardware number). A near-empty kernel over a single 32 B
// mapping isolates the offload path; 16 in-order streams provide the
// concurrency (Fig. 11a's M2func curve).
// ---------------------------------------------------------------------

struct LaunchThroughputResult
{
    unsigned streams = 0;
    std::uint64_t launches = 0;
    double sim_seconds = 0.0;
    std::uint64_t host_allocs = 0; ///< heap allocs during submits (warm)
};

LaunchThroughputResult
runLaunchThroughput(unsigned streams, std::uint64_t launches)
{
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    System sys(cfg);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    KernelResources res;
    res.num_int_regs = 4;
    std::int64_t kid = rt->registerKernel("nop\n", res);
    M2_ASSERT(kid > 0, "nop kernel registration failed");
    Addr pool = proc.allocate(4096);

    std::vector<NdpStream *> pool_streams;
    for (unsigned s = 0; s < streams; ++s)
        pool_streams.push_back(&rt->createStream());

    auto submit = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            pool_streams[i % streams]->launch(
                LaunchDesc(kid, pool, pool + 32));
        }
    };
    // Warm pools (launch records, host-access records, event slabs) with
    // a full-size burst so the measured one reflects the steady state.
    submit(launches);
    rt->synchronize();

    LaunchThroughputResult r;
    r.streams = streams;
    r.launches = launches;
    Tick sim0 = sys.eq().now();
    // Host-path allocations are counted over the submit loop only: the
    // simulation that follows includes device-side per-launch bookkeeping
    // (kernel instances), which tests/test_alloc.cc budgets separately.
    std::uint64_t a0 = allocationCount();
    submit(launches);
    r.host_allocs = allocationCount() - a0;
    rt->synchronize();
    r.sim_seconds = ticksToSeconds(sys.eq().now() - sim0);
    return r;
}

// ---------------------------------------------------------------------
// Fault-mode section: the same nop-kernel launch burst with deterministic
// link-fault injection on (fixed seed, 1e-4 bit-error rate) and streams
// on the retry policy. CRC hits are resolved by CXL replay — latency,
// not data loss — so the completed-launch ratio is expected to hold at
// 1.0 while the replay count tracks how much traffic was perturbed. All
// metrics are simulated-time and deterministic, so they gate strictly.
// ---------------------------------------------------------------------

struct FaultModeResult
{
    std::uint64_t launches = 0;
    std::uint64_t completed_ok = 0;
    std::uint64_t link_retries = 0; ///< CRC replays at the link layer
    std::uint64_t relaunches = 0;   ///< stream-level retry re-issues
    double sim_seconds = 0.0;
};

FaultModeResult
runFaultMode(unsigned streams, std::uint64_t launches)
{
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    cfg.fault.enabled = true;
    cfg.fault.bit_error_rate = 1e-4;
    System sys(cfg);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    KernelResources res;
    res.num_int_regs = 4;
    std::int64_t kid = rt->registerKernel("nop\n", res);
    M2_ASSERT(kid > 0, "nop kernel registration failed");
    Addr pool = proc.allocate(4096);

    std::vector<NdpStream *> pool_streams;
    for (unsigned s = 0; s < streams; ++s) {
        pool_streams.push_back(&rt->createStream());
        pool_streams.back()->setPolicy(StreamPolicy::Retry);
    }

    FaultModeResult r;
    r.launches = launches;
    Tick sim0 = sys.eq().now();
    std::vector<NdpEvent> evs;
    evs.reserve(launches);
    for (std::uint64_t i = 0; i < launches; ++i) {
        evs.push_back(pool_streams[i % streams]->launch(
            LaunchDesc(kid, pool, pool + 32)));
    }
    rt->synchronize();
    r.sim_seconds = ticksToSeconds(sys.eq().now() - sim0);
    for (const auto &ev : evs) {
        if (ev.done() && !ev.failed())
            ++r.completed_ok;
    }
    r.relaunches = rt->stats().relaunches;
    r.link_retries = sys.link(0).faultStats().crc_replays;
    return r;
}

// ---------------------------------------------------------------------
// Parallel-engine section: Fig. 12b's 8-device OPT-30B shard on the
// partitioned engine, serial vs multithreaded. Both runs must produce
// the *same* engine checksum and final sim time — the conservative
// lookahead protocol guarantees bit-exact schedules regardless of the
// thread count — so checksums_match gates strictly while the speedup is
// a wall-clock metric (25% tolerance; ~1.0 on a single-core host, where
// the run still exercises the full cross-thread machinery with one
// executor).
// ---------------------------------------------------------------------

struct ParallelScalingResult
{
    unsigned devices = 0;
    unsigned threads = 0; ///< worker threads of the parallel run
    double serial_wall = 0.0;
    double parallel_wall = 0.0;
    bool checksums_match = false;
    std::uint64_t serial_checksum = 0;
    std::uint64_t parallel_checksum = 0;
};

ParallelScalingResult
runParallelScaling()
{
    constexpr unsigned kDevices = 8;

    auto run = [](unsigned threads, std::uint64_t &checksum,
                  Tick &final_now) {
        SystemConfig cfg;
        cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        cfg.num_devices = kDevices;
        cfg.threads = threads;
        System sys(cfg);
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);
        workloads::OptConfig oc;
        oc.model = workloads::OptModel::opt30b();
        oc.sim_hidden = 256;
        oc.sim_layers = 1;
        oc.devices = kDevices;
        workloads::OptWorkload w(sys, proc, oc);
        w.setup();
        auto t0 = std::chrono::steady_clock::now();
        w.runNdp(*rt);
        auto t1 = std::chrono::steady_clock::now();
        checksum = sys.engineChecksum();
        final_now = sys.eq().now();
        return std::chrono::duration<double>(t1 - t0).count();
    };

    ParallelScalingResult r;
    r.devices = kDevices;
    unsigned hw = std::thread::hardware_concurrency();
    r.threads = std::min(8u, hw != 0 ? hw : 1u);

    // Median-of-three walls per mode; the checksums must be identical
    // across every run, so the last pair is as good as any.
    Tick now_s = 0, now_p = 0;
    double sw[3], pw[3];
    for (int i = 0; i < 3; ++i) {
        sw[i] = run(1, r.serial_checksum, now_s);
        pw[i] = run(r.threads, r.parallel_checksum, now_p);
    }
    std::sort(sw, sw + 3);
    std::sort(pw, pw + 3);
    r.serial_wall = sw[1];
    r.parallel_wall = pw[1];
    r.checksums_match =
        r.serial_checksum == r.parallel_checksum && now_s == now_p;
    return r;
}

// ---------------------------------------------------------------------
// QoS / overload section: the open-loop traffic harness (see
// bench/fig16_open_loop.cc for the full study) condensed into four
// gated numbers. All are simulated-time and deterministic. The fig16
// sweep puts the knee of the goodput-vs-offered-load curve at
// ~128 Mreq/s, so the operating points below are fixed at round
// fractions of it (fixed rates keep the gated numbers continuous in
// the underlying capacity instead of jumping grid steps):
//
//  - knee_offered_load: goodput under deep saturation (3x knee) — for
//    an open-loop system this plateau *is* the knee/capacity, measured
//    continuously rather than by sweeping a grid.
//  - p99_sim_ns: tail latency at 90 Mreq/s, i.e. ~70% of the knee (the
//    SLO operating point; must not regress as the runtime grows).
//  - shed_ratio_overload: fraction of requests rejected or shed at 2x
//    knee with fault injection on — bounded-queue admission working.
//  - min_progress_ratio: worst per-tenant completed/offered in that
//    overload run — the starvation floor under WRR priorities.
// ---------------------------------------------------------------------

struct QosResult
{
    double knee_offered_load = 0.0; ///< req/s, measured at the knee
    std::uint64_t p99_sim_ns = 0;   ///< at 70% of the knee
    double shed_ratio_overload = 0.0;
    double min_progress_ratio = 0.0;
    std::uint64_t overload_checksum = 0;
    bool typed_ok = false; ///< every non-completion carried a typed error
};

workloads::TrafficResult
runTrafficPoint(const workloads::TrafficConfig &tc, bool faults)
{
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    if (faults) {
        cfg.fault.enabled = true;
        cfg.fault.bit_error_rate = 1e-4;
    }
    System sys(cfg);
    workloads::TrafficHarness h(sys, tc);
    return h.run();
}

QosResult
runQos()
{
    using namespace workloads;
    constexpr unsigned kRequests = 2000;

    auto tenant = [](double rate) {
        TrafficTenantConfig t;
        t.streams = 64;
        t.requests = kRequests;
        t.arrival_rate = rate;
        t.queue_limit = 16;
        t.policy = StreamPolicy::SkipAndContinue;
        return t;
    };

    constexpr double kKnee = 128e6; // fig16 grid knee (rationale above)

    QosResult q;
    // Capacity: drive far past the knee with unbounded-ish queues and
    // no deadline; the goodput plateau is the device's service capacity.
    {
        TrafficConfig tc;
        tc.tenants.push_back(tenant(3.0 * kKnee));
        TrafficResult r = runTrafficPoint(tc, false);
        q.knee_offered_load = r.goodput_rps;
    }

    // Tail latency at the ~70%-of-knee operating point.
    {
        TrafficConfig tc;
        tc.tenants.push_back(tenant(90e6));
        q.p99_sim_ns = runTrafficPoint(tc, false).latency.p99();
    }

    // Overload: a latency tenant and a bursty batch tenant together at
    // ~2x knee, faults on. Shallow queues + a tight deadline force the
    // degradation through typed sheds/rejections.
    TrafficTenantConfig hi = tenant(kKnee / 8.0);
    hi.streams = 16;
    hi.requests = kRequests / 4;
    hi.weight = 4;
    hi.deadline = 100 * kUs;
    TrafficTenantConfig lo = tenant(2.0 * kKnee);
    lo.queue_limit = 8;
    lo.deadline = 4 * kUs;
    lo.burst_prob = 0.05;
    lo.burst_size = 16;
    lo.policy = StreamPolicy::Retry;
    lo.retry_backoff = 2 * kUs;
    lo.rate_limit = 3.0 * kKnee;
    lo.rate_burst = 64;
    TrafficConfig over;
    over.tenants.push_back(hi);
    over.tenants.push_back(lo);
    TrafficResult r = runTrafficPoint(over, true);
    q.shed_ratio_overload =
        r.offered != 0 ? static_cast<double>(r.shed + r.rejected) /
                             static_cast<double>(r.offered)
                       : 1.0;
    q.min_progress_ratio = 1.0;
    for (const auto &t : r.tenants) {
        double progress = t.offered != 0
                              ? static_cast<double>(t.completed) /
                                    static_cast<double>(t.offered)
                              : 0.0;
        q.min_progress_ratio = std::min(q.min_progress_ratio, progress);
    }
    q.overload_checksum = r.checksum();
    q.typed_ok =
        r.completed + r.rejected + r.shed + r.faulted == r.offered;
    return q;
}

EndToEndResult
runEndToEnd(unsigned elems)
{
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    System sys(cfg);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);

    Addr a = proc.allocate(elems * 4), b = proc.allocate(elems * 4),
         c = proc.allocate(elems * 4);
    std::vector<float> va(elems), vb(elems);
    for (unsigned i = 0; i < elems; ++i) {
        va[i] = 0.25f * static_cast<float>(i);
        vb[i] = 2.0f * static_cast<float>(i);
    }
    sys.writeVirtual(proc, a, va.data(), elems * 4);
    sys.writeVirtual(proc, b, vb.data(), elems * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kVecAdd, res);
    M2_ASSERT(kid > 0, "vecadd kernel registration failed");

    Tick sim0 = sys.eq().now();
    std::uint64_t alloc0 = allocationCount();
    std::uint64_t events0 = sys.totalEventsScheduled();
    auto t0 = std::chrono::steady_clock::now();
    rt->launchKernelSync(
        LaunchDesc(kid, a, a + elems * 4).arg(b).arg(c));
    auto t1 = std::chrono::steady_clock::now();

    auto stats = sys.device().aggregateUnitStats();
    EndToEndResult r;
    r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    r.instructions = stats.instructions;
    r.uthreads = stats.uthreads_completed;
    r.units = stats;
    r.sim_seconds = ticksToSeconds(sys.eq().now() - sim0);
    r.heap_allocs = allocationCount() - alloc0;
    r.events_scheduled = sys.totalEventsScheduled() - events0;
    for (unsigned u = 0; u < sys.device().config().num_units; ++u) {
        const TlbStats &s = sys.device().unit(u).dtlbStats();
        r.dtlb.hits += s.hits;
        r.dtlb.misses += s.misses;
        r.dtlb.fast_hits += s.fast_hits;
        r.dtlb.evictions += s.evictions;
        const CacheStats &l1 = sys.device().l1dCache(u).stats();
        r.miss_forwards += l1.miss_forwards;
        r.miss_path_packets += l1.miss_path_packets;
    }
    for (unsigned i = 0; i < sys.device().numL2Slices(); ++i) {
        const CacheStats &l2 = sys.device().l2Slice(i).stats();
        r.miss_forwards += l2.miss_forwards;
        r.miss_path_packets += l2.miss_path_packets;
    }
    return r;
}

} // namespace
} // namespace m2ndp

int
main(int argc, char **argv)
{
    using namespace m2ndp;

    std::uint64_t events = 2'000'000;
    // Default concurrency mirrors a full-figure run: 32 units x 64 uthread
    // slots plus DRAM/host events in flight.
    unsigned actors = 1024;
    unsigned elems = 1u << 18; // 256 Ki floats -> ~330k simulated insts
    std::string out_path = "BENCH_sim_throughput.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--events=", 9) == 0)
            events = std::strtoull(argv[i] + 9, nullptr, 10);
        else if (std::strncmp(argv[i], "--actors=", 9) == 0)
            actors = static_cast<unsigned>(std::atoi(argv[i] + 9));
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_path = argv[i] + 6;
        else if (std::strcmp(argv[i], "--quick") == 0)
            elems = 1u << 14;
    }

    // Warm up allocator and caches, then take the median of three runs
    // so one scheduling hiccup cannot skew the rate. Every run fires the
    // same events in the same order, so they share one checksum.
    runActorWorkload(actors, events / 20 + 1);
    EngineResult engine_runs[3];
    for (auto &r : engine_runs)
        r = runActorWorkload(actors, events);
    std::sort(engine_runs, engine_runs + 3,
              [](const EngineResult &a, const EngineResult &b) {
                  return a.wall_seconds < b.wall_seconds;
              });
    const EngineResult &engine = engine_runs[1];

    auto rate = [](std::uint64_t n, double secs) {
        return secs > 0.0 ? static_cast<double>(n) / secs : 0.0;
    };

    // Launch throughput (simulated, deterministic).
    LaunchThroughputResult lt = runLaunchThroughput(16, 256);
    double launches_per_sec =
        lt.sim_seconds > 0.0
            ? static_cast<double>(lt.launches) / lt.sim_seconds
            : 0.0;

    // Fault mode (simulated, deterministic: fixed injection seed).
    FaultModeResult fm = runFaultMode(16, 256);
    double fm_ratio =
        fm.launches != 0 ? static_cast<double>(fm.completed_ok) /
                               static_cast<double>(fm.launches)
                         : 0.0;
    double fm_retries_per_launch =
        fm.launches != 0 ? static_cast<double>(fm.link_retries) /
                               static_cast<double>(fm.launches)
                         : 0.0;

    // QoS / overload (simulated, deterministic).
    QosResult qos = runQos();

    // Parallel scaling (wall-clock; checksums deterministic).
    ParallelScalingResult ps = runParallelScaling();
    double ps_speedup = ps.parallel_wall > 0.0
                            ? ps.serial_wall / ps.parallel_wall
                            : 0.0;

    // End-to-end: median of three runs by wall time (the host box may be
    // shared; a single run is too noisy to gate regressions on). The
    // MemPacket pool is process-global, so the later runs also measure
    // the warm, zero-allocation steady state.
    EndToEndResult e2e_runs[3];
    for (int i = 0; i < 3; ++i)
        e2e_runs[i] = runEndToEnd(elems);
    std::sort(e2e_runs, e2e_runs + 3,
              [](const EndToEndResult &a, const EndToEndResult &b) {
                  return a.wall_seconds < b.wall_seconds;
              });
    const EndToEndResult &e2e = e2e_runs[1];
    double ips = rate(e2e.instructions, e2e.wall_seconds);

    // One extra *instrumented* run attributes the end-to-end wall clock
    // to the hot paths (issue stage / line fills / functional executor)
    // so the split is trackable without a profiler. Shares are ratios of
    // timebase ticks against a scope around the whole run, so no clock
    // calibration is needed; the (lightly) perturbed run is kept out of
    // the gated medians above.
    hotpath::g.enabled = true;
    hotpath::g.resetCounters();
    EndToEndResult inst_run;
    {
        hotpath::Scope total_scope(hotpath::g.total);
        inst_run = runEndToEnd(elems);
    }
    hotpath::g.enabled = false;
    double bd_wall = inst_run.wall_seconds;
    double func_t = static_cast<double>(hotpath::g.functional);
    // The functional executor runs inside the issue scope: subtract.
    double issue_t = static_cast<double>(hotpath::g.issue) - func_t;
    double fill_t = static_cast<double>(hotpath::g.fill);
    double total_t = static_cast<double>(hotpath::g.total);
    auto pct = [total_t](double t) {
        return total_t > 0.0 ? 100.0 * t / total_t : 0.0;
    };

    const NdpUnitStats &u = e2e.units;
    double ready_avg =
        u.active_cycles != 0
            ? static_cast<double>(u.ready_occupancy_integral) /
                  static_cast<double>(u.active_cycles)
            : 0.0;
    double burst_avg =
        u.bursts != 0 ? static_cast<double>(u.burst_cycles) /
                            static_cast<double>(u.bursts)
                      : 0.0;

    char json[12288];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"bench\": \"sim_throughput\",\n"
        "  \"engine\": {\n"
        "    \"events\": %llu,\n"
        "    \"actors\": %u,\n"
        "    \"wall_seconds\": %.6f,\n"
        "    \"events_per_sec\": %.0f,\n"
        "    \"checksum\": \"%016llx\"\n"
        "  },\n"
        "  \"launch_throughput\": {\n"
        "    \"scheme\": \"M2func\",\n"
        "    \"streams\": %u,\n"
        "    \"launches\": %llu,\n"
        "    \"sim_seconds\": %.9f,\n"
        "    \"launches_per_sec\": %.0f,\n"
        "    \"host_allocs_per_launch\": %.4f\n"
        "  },\n"
        "  \"fault_mode\": {\n"
        "    \"bit_error_rate\": 1e-4,\n"
        "    \"launches\": %llu,\n"
        "    \"completed_launch_ratio\": %.4f,\n"
        "    \"link_retries\": %llu,\n"
        "    \"link_retries_per_launch\": %.4f,\n"
        "    \"stream_relaunches\": %llu,\n"
        "    \"sim_seconds\": %.9f\n"
        "  },\n"
        "  \"qos\": {\n"
        "    \"knee_offered_load\": %.0f,\n"
        "    \"p99_sim_ns\": %llu,\n"
        "    \"shed_ratio_overload\": %.4f,\n"
        "    \"min_progress_ratio\": %.4f,\n"
        "    \"typed_accounting\": %s,\n"
        "    \"overload_checksum\": \"%016llx\"\n"
        "  },\n"
        "  \"parallel\": {\n"
        "    \"workload\": \"opt30b_8dev\",\n"
        "    \"devices\": %u,\n"
        "    \"threads\": %u,\n"
        "    \"serial_wall_seconds\": %.6f,\n"
        "    \"parallel_wall_seconds\": %.6f,\n"
        "    \"speedup_vs_serial\": %.3f,\n"
        "    \"checksums_match\": %s\n"
        "  },\n"
        "  \"end_to_end\": {\n"
        "    \"workload\": \"vecadd_%u\",\n"
        "    \"sim_instructions\": %llu,\n"
        "    \"uthreads\": %llu,\n"
        "    \"wall_seconds\": %.6f,\n"
        "    \"sim_instructions_per_sec\": %.0f,\n"
        "    \"sim_seconds\": %.9f,\n"
        "    \"sim_to_host_time_ratio\": %.3e,\n"
        "    \"dtlb_hit_rate\": %.6f,\n"
        "    \"dtlb_fast_hit_rate\": %.6f,\n"
        "    \"dtlb_evictions\": %llu,\n"
        "    \"heap_allocs_per_inst\": %.4f,\n"
        "    \"events_per_inst\": %.4f,\n"
        "    \"packets_per_miss\": %.4f,\n"
        "    \"scheduler\": {\n"
        "      \"ready_occupancy_avg\": %.3f,\n"
        "      \"issue_stall_no_ready\": %llu,\n"
        "      \"issue_stall_fu_busy\": %llu,\n"
        "      \"issue_stall_mem_wait\": %llu,\n"
        "      \"burst_count\": %llu,\n"
        "      \"burst_avg_cycles\": %.2f,\n"
        "      \"burst_max_cycles\": %llu\n"
        "    }\n"
        "  },\n"
        "  \"breakdown\": {\n"
        "    \"wall_seconds\": %.6f,\n"
        "    \"issue_pct\": %.1f,\n"
        "    \"fill_pct\": %.1f,\n"
        "    \"functional_pct\": %.1f,\n"
        "    \"other_pct\": %.1f\n"
        "  }\n"
        "}\n",
        static_cast<unsigned long long>(engine.events), actors,
        engine.wall_seconds, rate(engine.events, engine.wall_seconds),
        static_cast<unsigned long long>(engine.checksum), lt.streams,
        static_cast<unsigned long long>(lt.launches), lt.sim_seconds,
        launches_per_sec,
        lt.launches != 0 ? static_cast<double>(lt.host_allocs) /
                               static_cast<double>(lt.launches)
                         : 0.0,
        static_cast<unsigned long long>(fm.launches), fm_ratio,
        static_cast<unsigned long long>(fm.link_retries),
        fm_retries_per_launch,
        static_cast<unsigned long long>(fm.relaunches), fm.sim_seconds,
        qos.knee_offered_load,
        static_cast<unsigned long long>(qos.p99_sim_ns),
        qos.shed_ratio_overload, qos.min_progress_ratio,
        qos.typed_ok ? "true" : "false",
        static_cast<unsigned long long>(qos.overload_checksum),
        ps.devices, ps.threads, ps.serial_wall, ps.parallel_wall,
        ps_speedup, ps.checksums_match ? "true" : "false", elems,
        static_cast<unsigned long long>(e2e.instructions),
        static_cast<unsigned long long>(e2e.uthreads), e2e.wall_seconds,
        ips, e2e.sim_seconds, e2e.sim_seconds / e2e.wall_seconds,
        e2e.dtlb.hitRate(),
        e2e.dtlb.hits != 0 ? static_cast<double>(e2e.dtlb.fast_hits) /
                                 static_cast<double>(e2e.dtlb.hits)
                           : 0.0,
        static_cast<unsigned long long>(e2e.dtlb.evictions),
        e2e.instructions != 0 ? static_cast<double>(e2e.heap_allocs) /
                                    static_cast<double>(e2e.instructions)
                              : 0.0,
        e2e.instructions != 0 ? static_cast<double>(e2e.events_scheduled) /
                                    static_cast<double>(e2e.instructions)
                              : 0.0,
        e2e.miss_forwards != 0
            ? static_cast<double>(e2e.miss_path_packets) /
                  static_cast<double>(e2e.miss_forwards)
            : 0.0,
        ready_avg,
        static_cast<unsigned long long>(u.stall_no_ready),
        static_cast<unsigned long long>(u.stall_fu_busy),
        static_cast<unsigned long long>(u.stall_mem_wait),
        static_cast<unsigned long long>(u.bursts), burst_avg,
        static_cast<unsigned long long>(u.burst_max), bd_wall,
        pct(issue_t), pct(fill_t), pct(func_t),
        // Residual wall share outside the instrumented scopes (event
        // engine, DRAM model, crossbars, host paths): emitted explicitly
        // so the four shares account for ~100% of the run.
        pct(std::max(0.0, total_t - issue_t - fill_t - func_t)));

    std::fputs(json, stdout);
    if (!out_path.empty()) {
        if (std::FILE *f = std::fopen(out_path.c_str(), "w")) {
            std::fputs(json, f);
            std::fclose(f);
            std::fprintf(stderr, "wrote %s\n", out_path.c_str());
        } else {
            std::fprintf(stderr, "could not write %s\n", out_path.c_str());
        }
    }

    if (!qos.typed_ok) {
        std::fprintf(stderr,
                     "FAIL: overload run lost requests without a typed "
                     "error\n");
        return 1;
    }
    if (!ps.checksums_match) {
        std::fprintf(
            stderr,
            "FAIL: parallel engine checksum mismatch (serial %llx, "
            "threads=%u %llx)\n",
            static_cast<unsigned long long>(ps.serial_checksum),
            ps.threads,
            static_cast<unsigned long long>(ps.parallel_checksum));
        return 1;
    }
    return 0;
}
