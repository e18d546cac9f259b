/**
 * @file
 * CPU host interval model. It stands in for the paper's ZSim runs: the
 * baselines only need the two bandwidth/latency regimes below, not a
 * cycle-level out-of-order core.
 *
 * Captures the two regimes the paper's CPU baselines live in:
 *  - latency-bound streaming: a scan sustains cores x MLP x line / latency
 *    (the OLAP Evaluate baseline: Polars evaluates a filter expression on
 *    one thread per query, so CXL latency dominates),
 *  - pointer chasing: dependent accesses pay full load-to-use each hop
 *    (the KVStore baseline).
 *
 * CPU-NDP (32 high-end OoO cores placed inside the CXL device, Section
 * IV-A) is the same model with device-internal latency/bandwidth.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/units.hh"

namespace m2ndp {

/** CPU configuration (Table IV). */
struct CpuConfig
{
    std::string name = "CPU";
    unsigned cores = 64;
    double freq_ghz = 3.2;
    /** Outstanding cache-line misses per core (MLHR/OoO window bound). */
    double mlp = 8.0;
    unsigned line_bytes = 64;
    /** Load-to-use latency of the memory holding the data. */
    Tick mem_latency = 150 * kNs;
    /** Bandwidth ceiling of the path to the data (GB/s). */
    double bw_gbps = 64.0;
    /** Per-element compute cost for scans (cycles per element). */
    double scan_cycles_per_element = 2.0;

    /** Baseline host with data in CXL memory (link-attached). */
    static CpuConfig hostOverCxl(Tick ltu = 150 * kNs);
    /** Baseline host with data in local DDR5. */
    static CpuConfig hostLocal();
    /** CPU-NDP: 32 cores inside the device at LPDDR5 BW (Section IV-A). */
    static CpuConfig cpuNdp();
};

/** Streaming-scan estimate. */
struct CpuScanResult
{
    Tick runtime = 0;
    double achieved_gbps = 0.0;
};

/**
 * Time for @p threads parallel threads to stream @p bytes with @p mlp-deep
 * miss-level parallelism plus per-element compute.
 */
CpuScanResult cpuScan(const CpuConfig &c, std::uint64_t bytes,
                      unsigned threads, std::uint64_t elements);

/**
 * Latency of one pointer-chase operation of @p dependent_accesses hops
 * (used by the KVStore host baseline for hash-table walks).
 */
Tick cpuPointerChase(const CpuConfig &c, unsigned dependent_accesses);

} // namespace m2ndp
