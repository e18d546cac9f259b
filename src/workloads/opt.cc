#include "workloads/opt.hh"

#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"

namespace m2ndp::workloads {

namespace {

/**
 * GEMV kernel: y = W x, ONE row per uthread for maximum concurrency.
 * The uthread pool region is a dummy 32 B-per-row window that is never
 * dereferenced — the x2 offset is used purely as a thread ID, exactly
 * the pattern Section III-G describes ("map uthreads to unallocated
 * dummy memory locations... the offset in the x2 register can be used
 * as a thread ID").
 * args: [0]=W, [8]=x, [16]=row_bytes, [24]=y. cols = row_bytes / 4.
 */
const char *kGemvKernel = R"(
    .name opt_gemv
    li   x3, %args
    ld   x4, 0(x3)         # W
    ld   x5, 8(x3)         # x
    ld   x7, 16(x3)        # row bytes
    ld   x10, 24(x3)       # y
    srli x8, x2, 5         # row = thread id = x2 / 32
    mul  x9, x8, x7
    add  x9, x4, x9        # W row pointer
    srli x6, x7, 2         # cols
    vsetvli x0, x0, e32, m1
    vmv.v.i v3, 0
    mv   x12, x6
    mv   x13, x9
    mv   x14, x5
col_loop:
    vsetvli x15, x12, e32, m1
    vle32.v v1, (x13)
    vle32.v v2, (x14)
    vfmacc.vv v3, v1, v2
    sub  x12, x12, x15
    slli x16, x15, 2
    add  x13, x13, x16
    add  x14, x14, x16
    bne  x12, x0, col_loop
    vsetvli x0, x0, e32, m1
    vmv.v.i v4, 0
    vfredusum.vs v5, v3, v4
    vfmv.f.s f1, v5
    slli x11, x8, 2
    add  x10, x10, x11
    fsw  f1, 0(x10)
)";

} // namespace

OptWorkload::OptWorkload(System &sys, ProcessAddressSpace &proc,
                         OptConfig cfg)
    : sys_(sys), proc_(proc), cfg_(cfg)
{
    M2_ASSERT(cfg_.sim_hidden % 8 == 0, "sim_hidden must be multiple of 8");
    M2_ASSERT(cfg_.devices >= 1, "need >= 1 device");
}

void
OptWorkload::setup()
{
    cols_ = cfg_.sim_hidden;
    // One representative weight matrix per device; the per-layer GEMV
    // count covers QKV(3) + out(1) + MLP up/down(4+4 as h->4h->h at the
    // reduced size: 8 h x h-equivalents) + KV-cache attention equivalent.
    gemvs_per_layer_ = 12 + 2 * cfg_.model.context / cfg_.sim_hidden;
    // Weak-scaling slice: each device simulates a constant-size shard
    // slice; the full-model share per device shrinks as 1/devices, which
    // extrapolatedTokenTime() accounts for.
    rows_per_dev_ = alignUp(cfg_.sim_hidden, 8);

    Rng rng(41);
    std::vector<float> w(rows_per_dev_ * cols_);
    for (auto &v : w)
        v = static_cast<float>(rng.nextDouble()) - 0.5f;
    for (unsigned dev = 0; dev < cfg_.devices; ++dev) {
        weights_va_.push_back(
            uploadArray(sys_, proc_, w, Placement::Localized, dev));
    }
    // The activation vector is broadcast to every shard (as in real
    // tensor parallelism); outputs and dummy pools are device-local.
    std::vector<float> x(cols_);
    for (auto &v : x)
        v = static_cast<float>(rng.nextDouble()) - 0.5f;
    for (unsigned dev = 0; dev < cfg_.devices; ++dev) {
        x_va_.push_back(uploadArray(sys_, proc_, x,
                                    Placement::Localized, dev));
        y_va_.push_back(proc_.allocate(rows_per_dev_ * 4 + 64,
                                       Placement::Localized, dev));
        // Dummy uthread pool: one 32 B mapping per row, never
        // dereferenced (Section III-G thread-ID pattern).
        pool_va_.push_back(proc_.allocate(rows_per_dev_ * 32 + 64,
                                          Placement::Localized, dev));
    }
}

RunResult
OptWorkload::runNdp(NdpRuntime &rt)
{
    M2_ASSERT(rt.numDevices() >= cfg_.devices,
              "runtime spans fewer devices than the tensor shards");
    KernelResources res;
    res.num_int_regs = 17;
    res.num_float_regs = 2;
    res.num_vector_regs = 6;
    std::int64_t kid = rt.registerKernel(kGemvKernel, res);
    M2_ASSERT(kid > 0, "gemv kernel registration failed");

    const std::uint64_t row_bytes = cols_ * 4;
    const std::uint64_t pool_bytes = rows_per_dev_ * 32;

    std::vector<NdpStream *> streams;
    for (unsigned dev = 0; dev < cfg_.devices; ++dev)
        streams.push_back(&rt.createStream(dev));

    Tick start = sys_.eq().now();
    // GEMVs of one token are dependent layer-to-layer; within a step all
    // device shards run concurrently, then an all-reduce combines partial
    // activations (charged analytically below). The per-device streams
    // are in-order, so queueing the next GEMV behind the previous one
    // expresses the dependence without host-side callbacks.
    for (unsigned g = 0; g < gemvs_per_layer_; ++g) {
        std::vector<NdpEvent> events;
        for (unsigned dev = 0; dev < cfg_.devices; ++dev) {
            Addr pool = pool_va_[dev];
            events.push_back(streams[dev]->launch(
                makeLaunch(kid, pool, pool + pool_bytes,
                           {weights_va_[dev], x_va_[dev], row_bytes,
                            y_va_[dev]})));
        }
        for (auto &ev : events)
            M2_ASSERT(ev.wait() > 0, "gemv launch failed");
    }
    // The all-reduce cost is charged at full-model scale separately in
    // extrapolatedTokenTime() callers (it must not be scaled twice).

    RunResult r;
    r.runtime = sys_.eq().now() - start;

    // Verify one shard's GEMV.
    auto y = downloadArray<float>(sys_, proc_, y_va_[0], rows_per_dev_);
    std::vector<float> w(rows_per_dev_ * cols_);
    sys_.readVirtual(proc_, weights_va_[0], w.data(), w.size() * 4);
    std::vector<float> x(cols_);
    sys_.readVirtual(proc_, x_va_[0], x.data(), x.size() * 4);
    r.verified = true;
    for (std::uint64_t row = 0; row < rows_per_dev_; row += 16) {
        float ref = 0.0f;
        for (std::uint64_t c = 0; c < cols_; ++c)
            ref += w[row * cols_ + c] * x[c];
        if (std::abs(ref - y[row]) >
            1e-2f * std::max(1.0f, std::abs(ref))) {
            r.verified = false;
            break;
        }
    }
    r.dram_bytes = static_cast<double>(sliceBytes());
    r.achieved_gbps = r.dram_bytes / ticksToSeconds(r.runtime) / 1e9;
    return r;
}

std::uint64_t
OptWorkload::sliceBytes() const
{
    // Per-device simulated slice traffic (all devices run concurrently).
    return static_cast<std::uint64_t>(gemvs_per_layer_) * rows_per_dev_ *
           cols_ * 4;
}

Tick
OptWorkload::extrapolatedTokenTime(Tick slice_time) const
{
    // Each device owns 1/devices of the full model's per-token bytes and
    // processes its share concurrently with the others.
    double per_dev_bytes = static_cast<double>(cfg_.model.bytesPerToken()) /
                           cfg_.devices;
    double scale = per_dev_bytes / static_cast<double>(sliceBytes());
    return static_cast<Tick>(static_cast<double>(slice_time) * scale);
}

Tick
OptWorkload::allReduceTime() const
{
    if (cfg_.devices <= 1)
        return 0;
    // Ring all-reduce of the h-sized activation per layer over 64 GB/s
    // CXL P2P links: 2(h*4)(d-1)/d bytes per device per layer.
    double bytes_per_layer = 2.0 * cfg_.model.hidden * 4.0 *
                             (cfg_.devices - 1) / cfg_.devices;
    double seconds =
        bytes_per_layer / (64e9) * cfg_.model.layers;
    // Plus per-step latency (P2P hop) per layer.
    double latency =
        2.0 * cfg_.devices * 70e-9 * cfg_.model.layers;
    return static_cast<Tick>((seconds + latency) * 1e12);
}

GpuWorkloadDesc
OptWorkload::gpuDesc() const
{
    GpuWorkloadDesc d;
    d.name = cfg_.model.name + "(Gen)";
    d.bytes_read = cfg_.model.bytesPerToken();
    d.bytes_written = cfg_.model.hidden * cfg_.model.layers * 4;
    d.coalescing = 1.0;
    d.active_lanes = 0.95;
    d.occupancy = 0.85;
    d.ops_per_byte = 0.5; // 2 flops per 4 B weight
    d.warp_mlp = 4.0;
    return d;
}

} // namespace m2ndp::workloads
