/**
 * @file
 * OPT LLM token generation (Table V): the generation phase streams the
 * layer weights (QKV / output projections, two MLP matrices) and the KV
 * cache once per token — all GEMV-shaped, weight-bandwidth-bound work.
 *
 * We simulate a configurable number of transformer layers at a reduced
 * hidden size (cycle-level GEMV kernels on the NDP units) and report
 * per-token time extrapolated linearly in streamed bytes to the full
 * model (OPT-2.7B: h=2560, 32 layers; OPT-30B: h=7168, 48 layers) — the
 * generation phase is bandwidth-bound, so runtime scales with bytes and a
 * reduced hidden size gives the same per-byte rate at a fraction of the
 * simulation time.
 * Weight shards across devices model the
 * paper's model-parallel scaling (Fig. 12b) including an all-reduce term.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace m2ndp::workloads {

struct OptModel
{
    std::string name;
    unsigned hidden = 2560;
    unsigned layers = 32;
    unsigned context = 1024;

    static OptModel opt2_7b() { return {"OPT-2.7B", 2560, 32, 1024}; }
    static OptModel opt30b() { return {"OPT-30B", 7168, 48, 1024}; }

    /** Bytes streamed per generated token (FP32 weights + KV cache). */
    std::uint64_t
    bytesPerToken() const
    {
        std::uint64_t h = hidden;
        std::uint64_t per_layer =
            4 * h * h * 4       // QKV + output projection
            + 8 * h * h * 4     // MLP up + down (4h)
            + 2ull * context * h * 4; // KV cache read
        return per_layer * layers;
    }
};

struct OptConfig
{
    OptModel model = OptModel::opt30b();
    /** Simulated slice: hidden size and layers actually executed. */
    unsigned sim_hidden = 512;
    unsigned sim_layers = 1;
    unsigned devices = 1; ///< tensor-parallel shards (Fig. 12b)
};

class OptWorkload
{
  public:
    OptWorkload(System &sys, ProcessAddressSpace &proc, OptConfig cfg);

    void setup();

    /**
     * Generate one token on the simulated slice; returns the measured
     * slice time. Use extrapolatedTokenTime() for the full-model figure.
     * Tensor-parallel shards run on one stream per device.
     */
    RunResult runNdp(NdpRuntime &rt);

    /** Full-model per-token time scaled from the measured slice. */
    Tick extrapolatedTokenTime(Tick slice_time) const;
    /** All-reduce time per token for tensor parallelism over CXL P2P. */
    Tick allReduceTime() const;

    GpuWorkloadDesc gpuDesc() const;
    std::uint64_t sliceBytes() const;
    const OptConfig &config() const { return cfg_; }

  private:
    System &sys_;
    ProcessAddressSpace &proc_;
    OptConfig cfg_;
    /** Per device: one weight matrix standing in for the layer slice. */
    std::vector<Addr> weights_va_;
    std::vector<Addr> x_va_, y_va_, pool_va_;
    /** Rows of the simulated GEMV per device shard. */
    std::uint64_t rows_per_dev_ = 0;
    std::uint64_t cols_ = 0;
    /** GEMVs per simulated layer (QKV+out+MLP+attention equivalents). */
    unsigned gemvs_per_layer_ = 0;
};

} // namespace m2ndp::workloads
