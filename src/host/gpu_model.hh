/**
 * @file
 * GPU host / GPU-NDP interval model.
 *
 * The paper evaluates GPU baselines with Accel-Sim; re-implementing a full
 * SIMT pipeline simulator is out of scope for an NDP reproduction.
 * Instead this model reproduces the first-order effects the paper
 * attributes to GPUs:
 *
 *  - memory-bound kernels are limited by min(link BW, internal BW) scaled
 *    by coalescing efficiency (128 B-granularity transactions waste
 *    bandwidth on irregular access, A4),
 *  - concurrency is bounded by SM count x resident warps with one
 *    outstanding access per warp slot (latency-bound regime for small SM
 *    counts: the GPU-NDP(Iso-FLOPS) effect),
 *  - threadblock-granular resource allocation wastes slots via inter-warp
 *    divergence (A2; modeled by the occupancy mini-simulator below),
 *  - kernel launches cost the CXL.io offload latency (Fig. 5),
 *  - SIMT-only execution spends extra dynamic instructions on per-lane
 *    address calculation (A1),
 *  - shared-memory scope is threadblock-local, multiplying global traffic
 *    for workloads like HISTO (A3).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"

namespace m2ndp {

/**
 * GPU hardware configuration (Table IV): the values the baselines vary.
 * The fixed ones (1536 threads and 128 FP32 lanes per SM, 32-wide
 * warps, 384 CXL port tags, ~400-cycle memory latency) are constants in
 * gpu_model.cc.
 */
struct GpuConfig
{
    double sms = 82.0;
    double freq_ghz = 1.695;
    /** Peak internal memory bandwidth (GB/s). */
    double mem_bw_gbps = 1024.0;
    /** Link bandwidth to where the data lives (GB/s); 0 = data is local. */
    double link_bw_gbps = 0.0;
    /** Load-to-use latency of the CXL link (bounds link throughput via
     *  the outstanding-transaction tag limit). */
    Tick link_ltu = 150 * kNs;
    /** Kernel launch + completion-check overhead (offload scheme). */
    Tick launch_overhead = 1500 * kNs;

    /** Peak FP32 GFLOPS. */
    double peakGflops() const;

    /** Baseline GPU host (RTX 3090-like) with data behind a 64 GB/s CXL
     *  link. */
    static GpuConfig baselineOverCxl();
    /** GPU-NDP: @p sm_count SMs inside the CXL device at LPDDR5 BW. */
    static GpuConfig gpuNdp(double sm_count, Tick launch_overhead);
};

/** Abstract workload description for the interval model. */
struct GpuWorkloadDesc
{
    std::string name;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    /** Useful fraction of each 128 B transaction (1.0 = fully coalesced). */
    double coalescing = 1.0;
    /** FP ops per useful byte (arithmetic intensity). */
    double ops_per_byte = 0.1;
    /** Fraction of active SIMT lanes (intra-warp divergence, A4). */
    double active_lanes = 1.0;
    /** Fraction of warp slots doing useful work (inter-warp divergence /
     *  threadblock fragmentation, A2). */
    double occupancy = 1.0;
    /** Extra global traffic factor from threadblock-scoped shared memory
     *  (A3); 1.0 = none. */
    double smem_scope_penalty = 1.0;
    /** Number of kernel launches on the critical path. */
    unsigned launches = 1;
    /** Average outstanding 32 B accesses per warp (MLP within a warp). */
    double warp_mlp = 1.0;
};

/** Result of an interval-model estimate. */
struct GpuEstimate
{
    Tick runtime = 0;
    double achieved_gbps = 0.0;
    Tick compute_time = 0;
    Tick memory_time = 0;
    Tick link_time = 0;
    Tick launch_time = 0;
};

/** Estimate runtime of @p w on @p g. */
GpuEstimate gpuEstimate(const GpuConfig &g, const GpuWorkloadDesc &w);

/**
 * Threadblock-occupancy mini-simulator (Fig. 6a): models warp slots on one
 * SM where warp runtimes are drawn from a skewed distribution (irregular
 * graph workloads) and slots are freed only when the whole threadblock
 * finishes. With tb_size == 1 it behaves like M2NDP's per-uthread
 * allocation.
 *
 * @return samples of (time_fraction, active_context_fraction).
 */
std::vector<std::pair<double, double>>
simulateOccupancy(unsigned warp_slots, unsigned tb_size_warps,
                  unsigned total_warps, double runtime_cv,
                  std::uint64_t seed = 42, unsigned max_tb_per_sm = 32);

/** Time-weighted average active-context fraction of an occupancy trace. */
double averageOccupancy(
    const std::vector<std::pair<double, double>> &trace);

} // namespace m2ndp
