/**
 * @file
 * DLRM SparseLengthsSum (SLS) inference (Table V): per request, gather 80
 * rows of a 256-dim FP32 embedding table resident in CXL memory and sum
 * them. The uthread pool region is the SLS output (one uthread per 32 B
 * of output, Section IV-B); the paper's Criteo-derived lookup streams are
 * not shipped with the simulator, so Zipfian-skewed indices, which keep
 * their hot-row skew, stand in for them.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "workloads/workload.hh"

namespace m2ndp::workloads {

struct DlrmConfig
{
    std::uint64_t table_rows = 100'000; ///< paper: 1 M (scaled default)
    unsigned dim = 256;                 ///< FP32 elements per row
    unsigned lookups_per_request = 80;
    unsigned batch = 32;                ///< 4 / 32 / 256
    std::uint64_t seed = 5;
    /** Shard the table across this many devices (Fig. 12b). */
    unsigned devices = 1;
};

class DlrmWorkload
{
  public:
    DlrmWorkload(System &sys, ProcessAddressSpace &proc, DlrmConfig cfg);

    void setup();

    /** One SLS batch on the NDP units. For multi-device sharding, one
     *  stream per device launches its shard's kernel concurrently
     *  (Section III-I); the runtime spans every device. */
    RunResult runNdp(NdpRuntime &rt);

    GpuWorkloadDesc gpuDesc() const;
    std::uint64_t usefulBytes() const;
    const DlrmConfig &config() const { return cfg_; }
    /** Per-request embedding-gather traffic (bytes). */
    std::uint64_t bytesPerRequest() const;

  private:
    System &sys_;
    ProcessAddressSpace &proc_;
    DlrmConfig cfg_;
    /** Per-device shard: table base and row count. */
    std::vector<Addr> table_va_;
    std::vector<Addr> indices_va_;
    Addr out_va_ = 0;
    std::vector<std::uint32_t> host_indices_;
    unsigned lookups_per_dev_ = 0;
};

} // namespace m2ndp::workloads
