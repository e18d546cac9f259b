#include "host/gpu_model.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace m2ndp {

namespace {

// Table IV GPU constants (the varied values live in GpuConfig).
constexpr unsigned kMaxThreadsPerSm = 1536;
constexpr unsigned kWarpSize = 32;
/** FP32 FMA lanes per SM (GA102-like: 128). */
constexpr unsigned kLanesPerSm = 128;
/** Outstanding 64 B transactions the CXL port can track. */
constexpr unsigned kLinkTags = 384;
/** Average memory latency seen by a warp (ticks). */
constexpr Tick kMemLatency = 400 * 590; ///< ~400 SM cycles

} // namespace

double
GpuConfig::peakGflops() const
{
    return sms * kLanesPerSm * 2.0 * freq_ghz;
}

GpuConfig
GpuConfig::baselineOverCxl()
{
    GpuConfig g;
    g.link_bw_gbps = 64.0;
    return g;
}

GpuConfig
GpuConfig::gpuNdp(double sm_count, Tick launch_overhead)
{
    GpuConfig g;
    g.sms = sm_count;
    g.freq_ghz = 2.0; // Table IV: GPU-NDP SMs run at 2 GHz
    g.mem_bw_gbps = 409.6;
    g.link_bw_gbps = 0.0;
    g.launch_overhead = launch_overhead;
    return g;
}

GpuEstimate
gpuEstimate(const GpuConfig &g, const GpuWorkloadDesc &w)
{
    GpuEstimate e;

    const double useful_bytes =
        static_cast<double>(w.bytes_read + w.bytes_written);
    // Coalescing: each 128 B transaction carries only a fraction of useful
    // data, so the wire/DRAM traffic is inflated; the threadblock-scoped
    // shared memory penalty (A3) multiplies global traffic further.
    const double moved_bytes =
        useful_bytes / std::max(0.01, w.coalescing) * w.smem_scope_penalty;

    // Concurrency-limited bandwidth: resident warps x outstanding accesses
    // per warp, each 32 B sector per latency (latency-bound regime that
    // penalizes low-SM-count GPU-NDP configurations).
    const double resident_warps =
        g.sms * (kMaxThreadsPerSm / kWarpSize) * w.occupancy;
    const double conc_bw =
        resident_warps * w.warp_mlp * 128.0 /
        (ticksToSeconds(kMemLatency) * 1e9); // GB/s

    double mem_bw = std::min(g.mem_bw_gbps, conc_bw);

    // Link throughput is also bounded by the outstanding-transaction tag
    // limit of the CXL port: tags x 64 B per round trip. This is what
    // makes the baseline degrade super-linearly at 2x/4x load-to-use
    // latencies (Fig. 13a).
    double link_bw_eff = g.link_bw_gbps;
    if (g.link_bw_gbps > 0.0) {
        double rt_seconds = ticksToSeconds(2 * g.link_ltu);
        double tag_bw =
            kLinkTags * 64.0 / rt_seconds / 1e9; // GB/s
        link_bw_eff = std::min(g.link_bw_gbps, tag_bw);
    }

    e.memory_time = static_cast<Tick>(
        moved_bytes / (mem_bw * 1e9) * 1e12);
    e.link_time = g.link_bw_gbps > 0.0
                      ? static_cast<Tick>(moved_bytes /
                                          (link_bw_eff * 1e9) * 1e12)
                      : 0;

    // Compute: useful flops at peak scaled by divergence and occupancy.
    const double flops = useful_bytes * w.ops_per_byte;
    const double eff_gflops =
        g.peakGflops() * w.active_lanes * w.occupancy;
    e.compute_time =
        static_cast<Tick>(flops / (eff_gflops * 1e9) * 1e12);

    e.launch_time = static_cast<Tick>(w.launches) * g.launch_overhead;
    e.runtime = std::max({e.memory_time, e.link_time, e.compute_time}) +
                e.launch_time;
    e.achieved_gbps = useful_bytes / ticksToSeconds(e.runtime) / 1e9;
    return e;
}

std::vector<std::pair<double, double>>
simulateOccupancy(unsigned warp_slots, unsigned tb_size_warps,
                  unsigned total_warps, double runtime_cv,
                  std::uint64_t seed, unsigned max_tb_per_sm)
{
    M2_ASSERT(tb_size_warps >= 1, "threadblock must have >= 1 warp");
    Rng rng(seed);

    // Lognormal-ish warp runtimes: exp(N(0, sigma)) has the heavy tail of
    // irregular graph workloads (some warps touch high-degree vertices).
    auto draw_runtime = [&]() {
        double u1 = rng.nextDouble();
        double u2 = rng.nextDouble();
        double z = std::sqrt(-2.0 * std::log(std::max(u1, 1e-12))) *
                   std::cos(2.0 * 3.14159265358979 * u2);
        return std::exp(runtime_cv * z);
    };

    // Slots hold threadblocks of tb_size_warps warps; a TB's slots free
    // only when its slowest warp finishes (inter-warp divergence, A2). A
    // separate max-TB-per-SM limit applies (Table IV: 32).
    struct Tb
    {
        double finish;
        unsigned warps;
        std::vector<double> warp_finish;
    };
    std::vector<Tb> running;
    unsigned warps_left = total_warps;
    unsigned slots_free = warp_slots;
    double now = 0.0;
    std::vector<std::pair<double, double>> trace;

    auto launch = [&]() {
        while (warps_left > 0 && slots_free >= tb_size_warps &&
               running.size() < max_tb_per_sm) {
            Tb tb;
            tb.warps = std::min(tb_size_warps, warps_left);
            double max_f = 0.0;
            for (unsigned i = 0; i < tb.warps; ++i) {
                double f = now + draw_runtime();
                tb.warp_finish.push_back(f);
                max_f = std::max(max_f, f);
            }
            tb.finish = max_f;
            warps_left -= tb.warps;
            slots_free -= tb_size_warps;
            running.push_back(std::move(tb));
        }
    };

    launch();
    while (!running.empty()) {
        // Active contexts now: warps whose own runtime has not elapsed.
        unsigned active = 0;
        for (const auto &tb : running) {
            for (double f : tb.warp_finish) {
                if (f > now)
                    ++active;
            }
        }
        trace.emplace_back(now, static_cast<double>(active) / warp_slots);

        // Advance to the next TB completion.
        auto next = std::min_element(
            running.begin(), running.end(),
            [](const Tb &a, const Tb &b) { return a.finish < b.finish; });
        now = next->finish;
        slots_free += tb_size_warps;
        running.erase(next);
        launch();
    }
    trace.emplace_back(now, 0.0);

    // Normalize time axis to [0, 1].
    if (now > 0.0) {
        for (auto &[t, v] : trace)
            t /= now;
    }
    return trace;
}

double
averageOccupancy(const std::vector<std::pair<double, double>> &trace)
{
    if (trace.size() < 2)
        return 0.0;
    double integral = 0.0;
    for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
        integral +=
            trace[i].second * (trace[i + 1].first - trace[i].first);
    }
    double span = trace.back().first - trace.front().first;
    return span > 0.0 ? integral / span : 0.0;
}

} // namespace m2ndp
