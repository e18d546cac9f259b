/**
 * @file
 * KVStore (simplified Redis, Table V): 24 B keys, 64 B values, chained
 * hash table in CXL memory. GET/SET operations are offloaded as
 * fine-grained NDP kernels after the host computes the key hash; the
 * baseline walks the chain with dependent CXL.mem reads from the host.
 *
 * Request mixes follow YCSB: KVS_A = 50% GET / 50% SET, KVS_B = 95% / 5%,
 * with Zipfian key popularity. Tail latency (p95) and latency-throughput
 * curves reproduce Figs. 1b, 10b, and 11a.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "workloads/workload.hh"

namespace m2ndp::workloads {

struct KvstoreConfig
{
    std::uint64_t num_items = 1'000'000;
    std::uint64_t num_buckets = 1 << 19;
    unsigned num_requests = 10'000;
    double get_fraction = 0.5; ///< KVS_A; 0.95 for KVS_B
    /** Open-loop arrival rate (requests/s); 0 = closed loop, back-to-back. */
    double arrival_rate = 0.0;
    std::uint64_t seed = 99;
};

/** Result of a trace run. */
struct KvstoreResult
{
    Histogram latency_ns; ///< end-to-end per-request latency
    double throughput_rps = 0.0;
    unsigned completed = 0;
    bool verified = false;
};

class KvstoreWorkload
{
  public:
    KvstoreWorkload(System &sys, ProcessAddressSpace &proc,
                    KvstoreConfig cfg);

    /** Build the hash table in CXL memory. */
    void setup();

    /**
     * Run the request trace with NDP offload (GET/SET kernels launched
     * via the runtime's configured offload scheme).
     */
    KvstoreResult runNdp(NdpRuntime &rt);

    /**
     * Host baseline: the host walks the hash chain itself with dependent
     * CXL.mem reads (real link + device timing, no NDP).
     */
    KvstoreResult runHostBaseline(HostCxlPort &port);

    const KvstoreConfig &config() const { return cfg_; }

  private:
    struct Run;

    struct Request
    {
        bool is_get;
        std::uint64_t key_rank;
        Tick arrival;
    };

    std::uint64_t keyHash(std::uint64_t rank) const;
    Addr bucketAddr(std::uint64_t hash) const;
    /** The request trace; built on first use, as it depends on cfg_ only. */
    const std::vector<Request> &trace();

    System &sys_;
    ProcessAddressSpace &proc_;
    KvstoreConfig cfg_;
    Addr buckets_va_ = 0;
    Addr nodes_va_ = 0;
    Addr resp_va_ = 0; ///< per-request response slots
    std::vector<std::uint64_t> chain_depth_; // for baseline modeling/verify
    std::vector<Request> trace_;
};

} // namespace m2ndp::workloads
