/**
 * @file
 * Open-loop saturation study (robustness extension; no direct paper
 * figure — "fig16" continues the paper's numbering). Three sections:
 *
 *  1. Knee curve: one tenant sweeps offered load from well below to well
 *     past device capacity; each point reports goodput, typed
 *     rejection/shed counts and deterministic sim-time p50/p99/p999.
 *     The knee is the highest offered load whose goodput still covers
 *     >= 95% of it.
 *
 *  2. Multi-tenant QoS: a weight-4 latency-sensitive tenant (with a
 *     deadline) shares the device with a weight-1 saturating batch
 *     tenant. The high-priority tenant's p99 must stay within 2x its
 *     uncontended p99 and its progress must not be starved.
 *
 *  3. Graceful degradation: 2x-knee offered load with link fault
 *     injection enabled. The run must drain with zero hangs, goodput
 *     must plateau near the knee, and every non-completed request must
 *     carry a typed error (Overloaded / DeadlineExceeded / fault codes).
 *
 * Everything reported is simulated time, bit-exact across seeds and
 * M2NDP_THREADS (the checksum line makes that checkable).
 */

#include <cinttypes>

#include "bench_common.hh"
#include "workloads/traffic.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

namespace {

TrafficResult
runPoint(const TrafficConfig &tc, bool faults, unsigned threads)
{
    SystemConfig cfg = tableIvSystem();
    cfg.threads = threads;
    if (faults) {
        cfg.fault.enabled = true;
        cfg.fault.bit_error_rate = 1e-4;
    }
    System sys(cfg);
    TrafficHarness h(sys, tc);
    return h.run();
}

TrafficTenantConfig
baseTenant(unsigned requests)
{
    TrafficTenantConfig t;
    t.streams = 64;
    t.requests = requests;
    t.get_fraction = 0.9;
    t.large_fraction = 0.25;
    t.queue_limit = 16;
    t.policy = StreamPolicy::SkipAndContinue;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    const unsigned requests =
        args.full ? 8000u : static_cast<unsigned>(args.scaled(2000));

    header("Fig. 16a", "open-loop throughput vs offered load (knee)");
    std::printf("  %-12s %-12s %-8s %-8s %-10s %-10s %-10s\n",
                "offered_M/s", "goodput_M/s", "shed%", "rej%", "p50_ns",
                "p99_ns", "p999_ns");
    const double rates[] = {16e6,  32e6,  64e6,  96e6, 128e6,
                            192e6, 256e6, 384e6};
    double knee = rates[0];
    double knee_goodput = 0.0;
    bool knee_found = false;
    for (double rate : rates) {
        TrafficConfig tc;
        TrafficTenantConfig t = baseTenant(requests);
        t.arrival_rate = rate;
        tc.tenants.push_back(t);
        TrafficResult r = runPoint(tc, false, args.threads);
        std::printf("  %-12.2f %-12.2f %-8.2f %-8.2f %-10" PRIu64
                    " %-10" PRIu64 " %-10" PRIu64 "\n",
                    r.offered_rps / 1e6, r.goodput_rps / 1e6,
                    100.0 * static_cast<double>(r.shed) /
                        static_cast<double>(r.offered),
                    100.0 * static_cast<double>(r.rejected) /
                        static_cast<double>(r.offered),
                    r.latency.p50(), r.latency.p99(), r.latency.p999());
        // Past the knee the run cannot absorb arrivals at the configured
        // rate: the completion span stretches (goodput falls short of
        // the configured rate) or admission control starts rejecting.
        // Track the last point that keeps up cleanly.
        bool keeps_up = r.goodput_rps >= 0.95 * rate &&
                        r.shed + r.rejected == 0;
        if (!keeps_up)
            break;
        knee = rate;
        knee_goodput = r.goodput_rps;
        knee_found = true;
    }
    if (knee_found)
        row("knee offered load", knee / 1e6, "Mreq/s");
    else
        note("no sweep point kept up (goodput >= 95% of the rate, no "
             "shed or reject): knee not measured; 16b/16c fall back to "
             "the first sweep rate");

    header("Fig. 16b", "multi-tenant QoS under contention");
    // Uncontended reference: the latency tenant alone at its own rate.
    TrafficTenantConfig hi = baseTenant(requests / 4);
    hi.streams = 16;
    hi.arrival_rate = knee / 8.0;
    hi.weight = 4;
    hi.deadline = 100 * kUs;
    TrafficTenantConfig lo = baseTenant(requests);
    lo.arrival_rate = 2.0 * knee; // saturating batch tenant
    lo.weight = 1;
    lo.burst_prob = 0.05;
    lo.burst_size = 16;

    TrafficConfig solo;
    solo.tenants.push_back(hi);
    TrafficResult r_solo = runPoint(solo, false, args.threads);

    TrafficConfig mixed;
    mixed.tenants.push_back(hi);
    mixed.tenants.push_back(lo);
    TrafficResult r_mix = runPoint(mixed, false, args.threads);

    const TrafficTenantResult &mhi = r_mix.tenants[0];
    const TrafficTenantResult &mlo = r_mix.tenants[1];
    row("hi-pri p99 uncontended", static_cast<double>(
            r_solo.tenants[0].latency.p99()), "ns");
    row("hi-pri p99 contended", static_cast<double>(mhi.latency.p99()),
        "ns");
    row("hi-pri p99 inflation",
        r_solo.tenants[0].latency.p99() != 0
            ? static_cast<double>(mhi.latency.p99()) /
                  static_cast<double>(r_solo.tenants[0].latency.p99())
            : 0.0,
        "x");
    row("hi-pri progress",
        100.0 * static_cast<double>(mhi.completed) /
            static_cast<double>(mhi.offered),
        "%");
    row("lo-pri goodput", mlo.goodput_rps / 1e6, "Mreq/s");

    header("Fig. 16c", "graceful degradation at 2x knee + faults");
    TrafficConfig over;
    TrafficTenantConfig ot = baseTenant(requests);
    // Shallow per-stream queues and a deadline tight enough that
    // queueing delay can expire it: the run must degrade through *typed*
    // sheds and rejections, never through unbounded queue growth.
    ot.queue_limit = 8;
    ot.arrival_rate = 2.0 * knee;
    ot.deadline = 4 * kUs;
    ot.policy = StreamPolicy::Retry;
    ot.retry_backoff = 2 * kUs;
    ot.rate_limit = 3.0 * knee; // token bucket bounds retry storms
    ot.rate_burst = 64;
    over.tenants.push_back(ot);
    TrafficResult r_over = runPoint(over, true, args.threads);

    std::uint64_t accounted = r_over.completed + r_over.rejected +
                              r_over.shed + r_over.faulted;
    row("offered", r_over.offered_rps / 1e6, "Mreq/s");
    row("goodput", r_over.goodput_rps / 1e6, "Mreq/s");
    if (knee_found)
        row("goodput vs knee", 100.0 * r_over.goodput_rps / knee_goodput,
            "%");
    row("shed (deadline)", static_cast<double>(r_over.shed), "req");
    row("rejected (overload)", static_cast<double>(r_over.rejected),
        "req");
    row("faulted", static_cast<double>(r_over.faulted), "req");
    row("typed accounting",
        100.0 * static_cast<double>(accounted) /
            static_cast<double>(r_over.offered),
        "%");
    std::printf("  result checksum: %016" PRIx64 "\n",
                r_over.checksum());
    note("every non-completed request carries a typed NdpError; the "
         "checksum is bit-exact across M2NDP_THREADS");
    return accounted == r_over.offered ? 0 : 1;
}
