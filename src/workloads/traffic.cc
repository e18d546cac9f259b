#include "workloads/traffic.hh"

#include <algorithm>
#include <functional>
#include <memory>

#include "common/log.hh"
#include "common/rng.hh"

namespace m2ndp::workloads {

namespace {

/** Key-node stride in the tenant's key table (large op touches it all). */
constexpr std::uint64_t kNodeBytes = 256;
/** Response-slot stride (one slot per stream; content is not verified). */
constexpr std::uint64_t kSlotBytes = 256;
/** Host-side request preparation cost (hash/dispatch, Section IV-B). */
constexpr Tick kPrepCost = 100 * kNs;

/**
 * GET: copy value bytes from the key node into the response slot (the
 * pool region, x1). Single 8 B argument — the key-node address — so the
 * launch is eligible for the compact batched M2func store.
 */
const char *kGetSmall = R"(
    .name tr_get_s
    li   x3, %args
    ld   x4, 0(x3)
    vsetvli x0, x0, e64, m1
    vle64.v v1, 0(x4)
    vse64.v v1, 0(x1)
    vle64.v v2, 32(x4)
    vse64.v v2, 32(x1)
)";

const char *kGetLarge = R"(
    .name tr_get_l
    li   x3, %args
    ld   x4, 0(x3)
    vsetvli x0, x0, e64, m1
    vle64.v v1, 0(x4)
    vse64.v v1, 0(x1)
    vle64.v v2, 32(x4)
    vse64.v v2, 32(x1)
    vle64.v v1, 64(x4)
    vse64.v v1, 64(x1)
    vle64.v v2, 96(x4)
    vse64.v v2, 96(x1)
    vle64.v v1, 128(x4)
    vse64.v v1, 128(x1)
    vle64.v v2, 160(x4)
    vse64.v v2, 160(x1)
    vle64.v v1, 192(x4)
    vse64.v v1, 192(x1)
    vle64.v v2, 224(x4)
    vse64.v v2, 224(x1)
)";

/** SET: copy the response slot's bytes into the key node. */
const char *kSetSmall = R"(
    .name tr_set_s
    li   x3, %args
    ld   x4, 0(x3)
    vsetvli x0, x0, e64, m1
    vle64.v v1, 0(x1)
    vse64.v v1, 0(x4)
    vle64.v v2, 32(x1)
    vse64.v v2, 32(x4)
)";

const char *kSetLarge = R"(
    .name tr_set_l
    li   x3, %args
    ld   x4, 0(x3)
    vsetvli x0, x0, e64, m1
    vle64.v v1, 0(x1)
    vse64.v v1, 0(x4)
    vle64.v v2, 32(x1)
    vse64.v v2, 32(x4)
    vle64.v v1, 64(x1)
    vse64.v v1, 64(x4)
    vle64.v v2, 96(x1)
    vse64.v v2, 96(x4)
    vle64.v v1, 128(x1)
    vse64.v v1, 128(x4)
    vle64.v v2, 160(x1)
    vse64.v v2, 160(x4)
    vle64.v v1, 192(x1)
    vse64.v v1, 192(x4)
    vle64.v v2, 224(x1)
    vse64.v v2, 224(x4)
)";

struct Request
{
    Tick arrival = 0;
    std::uint64_t key = 0;
    bool is_get = true;
    bool is_large = false;
};

/** One tenant's live driving state (indices into parallel vectors). */
struct Tenant
{
    ProcessAddressSpace *proc = nullptr;
    std::unique_ptr<NdpRuntime> rt;
    std::vector<NdpStream *> streams;
    std::vector<Request> trace;
    std::int64_t kid[2][2] = {}; ///< [is_get][is_large]
    std::vector<Addr> nodes_va; ///< per-device key-table shard
    std::vector<Addr> slots_va; ///< per-device response-slot block
    unsigned next_req = 0;
    Tick base = 0;
    Tick last_completion = 0;

    /**
     * Launch trace request @p idx on its stream; the outcome lands in
     * @p res. The descriptor is rebuilt here from the trace entry so the
     * scheduling event only captures the request index.
     */
    void
    launch(unsigned idx, TrafficTenantResult &res)
    {
        const Request &req = trace[idx];
        const Tick arrival = base + req.arrival;
        unsigned s = idx % streams.size();
        unsigned dev = s % nodes_va.size();
        Addr slot = slots_va[dev] + (s / nodes_va.size()) * kSlotBytes;
        Addr node = nodes_va[dev] + req.key * kNodeBytes;
        std::uint64_t bytes = req.is_large ? kNodeBytes : 64;
        LaunchDesc desc(kid[req.is_get][req.is_large], slot, slot + bytes);
        desc.arg(node);
        streams[s]->launch(desc).onComplete(
            [this, &res, arrival](std::int64_t iid, Tick done) {
                if (iid >= 0) {
                    ++res.completed;
                    res.latency.record(
                        static_cast<std::uint64_t>((done - arrival) / kNs));
                    last_completion = std::max(last_completion, done);
                    return;
                }
                switch (ndpErrorOf(iid)) {
                  case NdpError::Overloaded:
                    ++res.rejected;
                    break;
                  case NdpError::DeadlineExceeded:
                    ++res.shed;
                    break;
                  default:
                    ++res.faulted;
                    break;
                }
            });
    }
};

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::uint64_t
TrafficResult::checksum() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &t : tenants) {
        h = fnv1a(h, t.offered);
        h = fnv1a(h, t.completed);
        h = fnv1a(h, t.rejected);
        h = fnv1a(h, t.shed);
        h = fnv1a(h, t.faulted);
        for (std::uint64_t b : t.latency.buckets())
            h = fnv1a(h, b);
    }
    h = fnv1a(h, static_cast<std::uint64_t>(end_tick));
    return h;
}

TrafficHarness::TrafficHarness(System &sys, TrafficConfig cfg)
    : sys_(sys), cfg_(std::move(cfg))
{
    M2_ASSERT(!cfg_.tenants.empty(), "traffic harness needs >= 1 tenant");
}

TrafficResult
TrafficHarness::run()
{
    auto &eq = sys_.eq();
    const unsigned ndev = sys_.numDevices();
    const std::size_t n = cfg_.tenants.size();

    std::vector<Tenant> tenants(n);
    TrafficResult result;
    result.tenants.resize(n);

    // ---- per-tenant setup: process (own ASID), runtime, streams ----
    for (std::size_t i = 0; i < n; ++i) {
        const TrafficTenantConfig &tc = cfg_.tenants[i];
        Tenant &t = tenants[i];
        t.proc = &sys_.createProcess();
        NdpRuntimeConfig rtcfg;
        rtcfg.rate_limit = tc.rate_limit;
        rtcfg.rate_burst = tc.rate_burst;
        rtcfg.device_queue_limit = tc.device_queue_limit;
        t.rt = sys_.createRuntime(*t.proc, rtcfg);

        KernelResources res;
        res.num_int_regs = 8;
        res.num_vector_regs = 3;
        t.kid[1][0] = t.rt->registerKernel(kGetSmall, res);
        t.kid[1][1] = t.rt->registerKernel(kGetLarge, res);
        t.kid[0][0] = t.rt->registerKernel(kSetSmall, res);
        t.kid[0][1] = t.rt->registerKernel(kSetLarge, res);
        M2_ASSERT(t.kid[0][0] > 0 && t.kid[0][1] > 0 && t.kid[1][0] > 0 &&
                      t.kid[1][1] > 0,
                  "traffic kernel registration failed");

        // Shard the key table and response slots per device: a stream
        // bound to device d only ever touches device-d memory (the
        // standard sharded-KVS layout), so kernels running in parallel
        // device partitions never share a frame.
        const unsigned shards = ndev > 0 ? ndev : 1;
        const unsigned slots_per_dev = (tc.streams + shards - 1) / shards;
        for (unsigned d = 0; d < shards; ++d) {
            t.nodes_va.push_back(
                t.proc->allocate(cfg_.num_keys * kNodeBytes + 64,
                                 Placement::Localized, d));
            t.slots_va.push_back(
                t.proc->allocate(slots_per_dev * kSlotBytes + 64,
                                 Placement::Localized, d));
        }
        for (unsigned s = 0; s < tc.streams; ++s) {
            NdpStream &st = t.rt->createStream(ndev > 0 ? s % ndev : 0);
            st.setPolicy(tc.policy, tc.max_retries, tc.retry_backoff);
            st.setPriority(tc.weight);
            st.setDeadline(tc.deadline);
            st.setQueueLimit(tc.queue_limit);
            t.streams.push_back(&st);
        }

        // ---- deterministic trace: Zipf keys, Poisson + burst arrivals ----
        ZipfianGenerator zipf(cfg_.num_keys, cfg_.zipf_theta,
                              cfg_.seed + i * 0x9e3779b97f4a7c15ull);
        Rng rng(cfg_.seed ^ (i * 0xd1342543de82ef95ull + 0xABCD));
        double mean_gap =
            tc.arrival_rate > 0.0 ? 1e12 / tc.arrival_rate : 0.0;
        t.trace.reserve(tc.requests);
        Tick arrival = 0;
        unsigned burst_left = 0;
        for (unsigned r = 0; r < tc.requests; ++r) {
            Request req;
            if (burst_left > 0) {
                --burst_left; // burst members share the arrival tick
            } else {
                arrival +=
                    static_cast<Tick>(rng.nextExponential(mean_gap));
                if (tc.burst_prob > 0.0 &&
                    rng.nextDouble() < tc.burst_prob)
                    burst_left = tc.burst_size;
            }
            req.arrival = arrival;
            req.key = zipf.next();
            req.is_get = rng.nextDouble() < tc.get_fraction;
            req.is_large = rng.nextDouble() < tc.large_fraction;
            t.trace.push_back(req);
        }
        result.tenants[i].offered = t.trace.size();
    }

    // ---- open-loop drive: arrivals fire whether or not the device keeps
    //      up; completions only record outcomes (no launch gating).
    const Tick base = eq.now();
    std::vector<std::function<void()>> drive(n);
    for (std::size_t i = 0; i < n; ++i) {
        Tenant &t = tenants[i];
        TrafficTenantResult &res = result.tenants[i];
        t.base = base;
        drive[i] = [&eq, &t, &res, base, &drive, i]() {
            while (t.next_req < t.trace.size()) {
                const Request &req = t.trace[t.next_req];
                Tick arrival = base + req.arrival;
                if (arrival > eq.now()) {
                    eq.schedule(arrival, [&drive, i] { drive[i](); });
                    return;
                }
                unsigned idx = t.next_req++;
                // The host prepares the request (hash, routing), then
                // launches; latency is measured from the arrival.
                eq.schedule(std::max(arrival, eq.now()) + kPrepCost,
                            [&t, &res, idx] { t.launch(idx, res); });
            }
        };
    }
    for (std::size_t i = 0; i < n; ++i)
        drive[i]();
    sys_.run();

    // ---- roll up ----
    Tick last = base;
    Tick arrivals = 0; // span from base to the last arrival
    for (std::size_t i = 0; i < n; ++i) {
        Tenant &t = tenants[i];
        TrafficTenantResult &res = result.tenants[i];
        Tick span = t.last_completion > t.base
                        ? t.last_completion - t.base
                        : 0;
        res.goodput_rps =
            span > 0 ? static_cast<double>(res.completed) /
                           ticksToSeconds(span)
                     : 0.0;
        result.latency.merge(res.latency);
        result.offered += res.offered;
        result.completed += res.completed;
        result.rejected += res.rejected;
        result.shed += res.shed;
        result.faulted += res.faulted;
        last = std::max(last, t.last_completion);
        if (!t.trace.empty())
            arrivals = std::max(arrivals, t.trace.back().arrival);
    }
    result.end_tick = last;
    if (arrivals > 0)
        result.offered_rps = static_cast<double>(result.offered) /
                             ticksToSeconds(arrivals);
    if (last > base)
        result.goodput_rps = static_cast<double>(result.completed) /
                             ticksToSeconds(last - base);
    return result;
}

} // namespace m2ndp::workloads
