#include "host/cpu_model.hh"

#include <algorithm>

namespace m2ndp {

namespace {

constexpr unsigned kLineBytes = 64;
/** Per-element compute cost for scans (cycles per element). */
constexpr double kScanCyclesPerElement = 2.0;

} // namespace

CpuConfig
CpuConfig::hostOverCxl(Tick ltu)
{
    CpuConfig c;
    c.mem_latency = ltu;
    c.bw_gbps = 64.0;
    return c;
}

CpuConfig
CpuConfig::hostLocal()
{
    CpuConfig c;
    c.mem_latency = 75 * kNs;
    c.bw_gbps = 409.6;
    return c;
}

CpuConfig
CpuConfig::cpuNdp()
{
    CpuConfig c;
    c.cores = 32;
    c.freq_ghz = 2.3; // EPYC 75F3 (Section IV-A)
    c.mem_latency = 90 * kNs; // device-internal access
    c.bw_gbps = 409.6;
    c.mlp = 10.0;
    return c;
}

CpuScanResult
cpuScan(const CpuConfig &c, std::uint64_t bytes, unsigned threads,
        std::uint64_t elements)
{
    threads = std::min(threads, c.cores);
    // Latency-bound streaming bandwidth per thread.
    double per_thread_gbps =
        c.mlp * kLineBytes / (ticksToSeconds(c.mem_latency) * 1e9);
    double stream_gbps =
        std::min(per_thread_gbps * threads, c.bw_gbps);
    Tick mem_time =
        static_cast<Tick>(static_cast<double>(bytes) /
                          (stream_gbps * 1e9) * 1e12);
    // Per-element compute (predicate evaluation etc.), parallel over threads.
    Tick compute_time = static_cast<Tick>(
        static_cast<double>(elements) * kScanCyclesPerElement /
        (c.freq_ghz * threads) * 1000.0);

    CpuScanResult r;
    r.runtime = std::max(mem_time, compute_time);
    r.achieved_gbps = static_cast<double>(bytes) /
                      ticksToSeconds(r.runtime) / 1e9;
    return r;
}

Tick
cpuPointerChase(const CpuConfig &c, unsigned dependent_accesses)
{
    return static_cast<Tick>(dependent_accesses) * c.mem_latency;
}

} // namespace m2ndp
