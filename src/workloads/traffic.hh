/**
 * @file
 * Open-loop multi-tenant traffic harness (overload / QoS evaluation).
 *
 * The Table V workloads measure throughput with closed-loop request
 * windows; overload behavior only shows up when arrivals are *open loop* —
 * requests arrive on a Poisson (optionally bursty) schedule whether or not
 * the device keeps up, so queues actually build and the admission-control
 * machinery (bounded queues, token buckets, deadlines — see
 * docs/robustness.md "Overload protection") is exercised for real.
 *
 * The harness models N tenants. Each tenant is a full process (its own
 * ASID) with its own runtime (so the token bucket is genuinely per
 * tenant) driving a pool of `NdpStream`s with per-stream priority,
 * deadline, queue bound and error policy. Request keys are Zipfian,
 * operations are a GET/SET mix of two transfer sizes, and every latency
 * is recorded in a deterministic `LatencyHistogram` (sim-time ns), so
 * p50/p99/p999 and the throughput-vs-offered-load knee are bit-exact
 * across seeds and `M2NDP_THREADS`. Key tables and response slots are
 * sharded per device (a stream bound to device d only touches device-d
 * memory, as a sharded KVS would), which also keeps parallel device
 * partitions frame-disjoint.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.hh"
#include "workloads/workload.hh"

namespace m2ndp::workloads {

/** One tenant: arrival process + stream-pool QoS knobs. */
struct TrafficTenantConfig
{
    /** Streams in the tenant's pool (client connections). */
    unsigned streams = 32;
    /** Open-loop arrival rate over the whole tenant (requests/s). */
    double arrival_rate = 1e6;
    /** Requests generated for this tenant. */
    unsigned requests = 2000;
    /** Fraction of GETs (rest are SETs). */
    double get_fraction = 0.9;
    /** Fraction of large (256 B) transfers (rest move 64 B). */
    double large_fraction = 0.25;
    /** Burst arrivals: probability an arrival brings a burst behind it. */
    double burst_prob = 0.0;
    /** Arrivals per burst (same tick) when one fires. */
    unsigned burst_size = 8;

    // ---- QoS knobs applied to every stream of the tenant ----
    /** WRR priority (1..255) on the device pullWork cursor. */
    unsigned weight = 1;
    /** Relative per-launch deadline (0 = none). */
    Tick deadline = 0;
    /** Per-stream bounded queue depth (0 = unbounded). */
    unsigned queue_limit = 64;
    StreamPolicy policy = StreamPolicy::SkipAndContinue;
    unsigned max_retries = 3;
    Tick retry_backoff = 1 * kUs;

    // ---- runtime-level admission (per tenant) ----
    /** Token-bucket rate limit (launches/s; 0 = off). */
    double rate_limit = 0.0;
    unsigned rate_burst = 16;
    /** Bounded per-device launch queue (0 = unbounded). */
    unsigned device_queue_limit = 1024;
};

struct TrafficConfig
{
    std::vector<TrafficTenantConfig> tenants;
    /** Keys per tenant (Zipfian popularity, theta 0.99). */
    std::uint64_t num_keys = 1 << 14;
    double zipf_theta = 0.99;
    std::uint64_t seed = 42;
};

/** Per-tenant outcome counters + latency distribution. */
struct TrafficTenantResult
{
    /** End-to-end latency of successful requests, in ns. */
    LatencyHistogram latency;
    std::uint64_t offered = 0;   ///< requests generated
    std::uint64_t completed = 0; ///< finished with a kernel instance id
    std::uint64_t rejected = 0;  ///< NdpError::Overloaded (typed, immediate)
    std::uint64_t shed = 0;      ///< NdpError::DeadlineExceeded
    std::uint64_t faulted = 0;   ///< any other typed error
    double goodput_rps = 0.0;
};

struct TrafficResult
{
    std::vector<TrafficTenantResult> tenants;
    /** Aggregate latency distribution (merged per-tenant histograms). */
    LatencyHistogram latency;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t faulted = 0;
    double offered_rps = 0.0; ///< over the span to the last arrival
    double goodput_rps = 0.0; ///< over the span to end_tick
    /** Last request completion tick. */
    Tick end_tick = 0;

    /**
     * FNV-1a digest over every tenant's counters and histogram buckets
     * plus the end tick: two runs are bit-exact iff digests match (the
     * cross-`M2NDP_THREADS` determinism gate).
     */
    std::uint64_t checksum() const;
};

/**
 * Owns the tenants' processes, runtimes and streams for one open-loop
 * run over @p sys. One harness per System; run() drives to completion.
 */
class TrafficHarness
{
  public:
    TrafficHarness(System &sys, TrafficConfig cfg);

    /** Generate arrivals, drive every tenant open loop, drain, report. */
    TrafficResult run();

  private:
    System &sys_;
    TrafficConfig cfg_;
};

} // namespace m2ndp::workloads
