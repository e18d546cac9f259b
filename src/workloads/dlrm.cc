#include "workloads/dlrm.hh"

#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"

namespace m2ndp::workloads {

namespace {

constexpr unsigned kDim = 256; ///< FP32 elements per embedding row
static_assert(kDim % 8 == 0, "a uthread sums 8 FP32 lanes of a row");
constexpr unsigned kLookupsPerRequest = 80;
constexpr std::uint64_t kSeed = 5;

/**
 * SLS kernel: each uthread produces 8 FP32 outputs (32 B) of one request's
 * pooled embedding. args: [0]=table, [8]=indices, [16]=lookups,
 * [24]=row_bytes. x2 encodes (request, dim-chunk) since the pool region is
 * the output tensor.
 */
const char *kSlsKernel = R"(
    .name dlrm_sls
    li   x3, %args
    ld   x4, 0(x3)         # table base
    ld   x5, 8(x3)         # indices base
    ld   x6, 16(x3)        # lookups per request
    ld   x7, 24(x3)        # row bytes (dim * 4)
    # request = x2 / row_bytes; dim offset = x2 % row_bytes
    divu x8, x2, x7
    remu x9, x2, x7
    # index pointer = indices + request * lookups * 4
    slli x10, x6, 2
    mul  x10, x8, x10
    add  x10, x5, x10
    vsetvli x0, x0, e32, m1
    vmv.v.i v1, 0
    mv   x11, x6
gather_loop:
    lw   x12, 0(x10)
    mul  x13, x12, x7
    add  x13, x4, x13
    add  x13, x13, x9
    vle32.v v2, (x13)
    vfadd.vv v1, v1, v2
    addi x10, x10, 4
    addi x11, x11, -1
    bne  x11, x0, gather_loop
    vse32.v v1, (x1)
)";

} // namespace

DlrmWorkload::DlrmWorkload(System &sys, ProcessAddressSpace &proc,
                           DlrmConfig cfg)
    : sys_(sys), proc_(proc), cfg_(cfg)
{
    M2_ASSERT(cfg_.devices >= 1, "need at least one device shard");
}

void
DlrmWorkload::setup()
{
    Rng rng(kSeed);
    const std::uint64_t row_bytes = kDim * 4ull;
    const std::uint64_t rows_per_dev =
        (cfg_.table_rows + cfg_.devices - 1) / cfg_.devices;

    // Table shards: rows filled with a deterministic value f(row, d).
    for (unsigned dev = 0; dev < cfg_.devices; ++dev) {
        std::vector<float> shard(rows_per_dev * kDim);
        for (std::uint64_t r = 0; r < rows_per_dev; ++r) {
            std::uint64_t global_row = dev * rows_per_dev + r;
            for (unsigned d = 0; d < kDim; ++d) {
                shard[r * kDim + d] =
                    0.001f * static_cast<float>((global_row + d) % 997);
            }
        }
        table_va_.push_back(uploadArray(sys_, proc_, shard,
                                        Placement::Localized, dev));
    }

    // Zipfian-skewed lookup indices (hot entries), per request.
    ZipfianGenerator zipf(cfg_.table_rows, 0.9, kSeed + 1);
    host_indices_.resize(static_cast<std::size_t>(cfg_.batch) *
                         kLookupsPerRequest);
    for (auto &idx : host_indices_)
        idx = static_cast<std::uint32_t>(zipf.next());

    // Per-device index lists: each shard gathers only ~1/devices of each
    // request's lookups (model-parallel SLS; partial sums are combined on
    // the host). Lists are padded to a fixed per-device lookup count so
    // the kernel's loop bound is uniform.
    lookups_per_dev_ = (kLookupsPerRequest + cfg_.devices - 1) /
                       cfg_.devices;
    for (unsigned dev = 0; dev < cfg_.devices; ++dev) {
        std::vector<std::uint32_t> local(
            static_cast<std::size_t>(cfg_.batch) * lookups_per_dev_, 0);
        for (unsigned b = 0; b < cfg_.batch; ++b) {
            unsigned filled = 0;
            for (unsigned l = 0; l < kLookupsPerRequest &&
                                 filled < lookups_per_dev_;
                 ++l) {
                std::uint64_t g =
                    host_indices_[b * kLookupsPerRequest + l];
                if (g / rows_per_dev == dev) {
                    local[b * lookups_per_dev_ + filled++] =
                        static_cast<std::uint32_t>(g % rows_per_dev);
                }
            }
            // Pad with repeats of slot 0 so traffic per request is the
            // same across devices (kept small relative to real lookups).
        }
        indices_va_.push_back(uploadArray(sys_, proc_, local,
                                          Placement::Localized, dev));
    }

    out_va_ = proc_.allocate(static_cast<std::uint64_t>(cfg_.batch) *
                                 row_bytes * cfg_.devices +
                             64);
}

RunResult
DlrmWorkload::runNdp(NdpRuntime &rt)
{
    M2_ASSERT(rt.numDevices() >= cfg_.devices,
              "runtime spans fewer devices than the table shards");
    const std::uint64_t row_bytes = kDim * 4ull;
    const std::uint64_t out_bytes =
        static_cast<std::uint64_t>(cfg_.batch) * row_bytes;

    KernelResources res;
    res.num_int_regs = 14;
    res.num_vector_regs = 3;
    std::int64_t kid = rt.registerKernel(kSlsKernel, res);
    M2_ASSERT(kid > 0, "sls kernel registration failed");

    Tick start = sys_.eq().now();
    std::vector<NdpEvent> events;
    for (unsigned dev = 0; dev < cfg_.devices; ++dev) {
        Addr out = out_va_ + dev * out_bytes;
        events.push_back(rt.createStream(dev).launch(
            makeLaunch(kid, out, out + out_bytes,
                       {table_va_[dev], indices_va_[dev], lookups_per_dev_,
                        row_bytes})));
    }
    sys_.run();
    for (auto &ev : events)
        M2_ASSERT(ev.done() && ev.instanceId() > 0, "sls launch failed");

    RunResult r;
    r.runtime = sys_.eq().now() - start;

    // Verify shard 0's pooled outputs against its local index list.
    std::vector<std::uint32_t> local0(
        static_cast<std::size_t>(cfg_.batch) * lookups_per_dev_);
    sys_.readVirtual(proc_, indices_va_[0], local0.data(),
                     local0.size() * 4);
    auto out = downloadArray<float>(sys_, proc_, out_va_,
                                    cfg_.batch * kDim);
    r.verified = true;
    for (unsigned b = 0; b < cfg_.batch && r.verified; ++b) {
        for (unsigned d = 0; d < kDim; d += 64) { // sample dims
            float ref = 0.0f;
            for (unsigned l = 0; l < lookups_per_dev_; ++l) {
                std::uint64_t local = local0[b * lookups_per_dev_ + l];
                ref += 0.001f * static_cast<float>((local + d) % 997);
            }
            float got = out[b * kDim + d];
            if (std::abs(ref - got) >
                1e-3f * std::max(1.0f, std::abs(ref)))
                r.verified = false;
        }
    }
    r.dram_bytes = static_cast<double>(usefulBytes());
    r.achieved_gbps = r.dram_bytes / ticksToSeconds(r.runtime) / 1e9;
    return r;
}

std::uint64_t
DlrmWorkload::bytesPerRequest() const
{
    return static_cast<std::uint64_t>(kLookupsPerRequest) *
               kDim * 4 +
           kLookupsPerRequest * 4 + kDim * 4;
}

std::uint64_t
DlrmWorkload::usefulBytes() const
{
    return static_cast<std::uint64_t>(cfg_.batch) * bytesPerRequest();
}

GpuWorkloadDesc
DlrmWorkload::gpuDesc() const
{
    GpuWorkloadDesc d;
    d.name = "DLRM(SLS)-B" + std::to_string(cfg_.batch);
    d.bytes_read = usefulBytes();
    d.bytes_written = static_cast<std::uint64_t>(cfg_.batch) * kDim * 4;
    d.coalescing = 1.0; // 1 KiB rows coalesce perfectly
    d.active_lanes = 0.95;
    d.occupancy = cfg_.batch >= 32 ? 0.9 : 0.35; // small batches underfill
    d.ops_per_byte = 0.25;
    d.warp_mlp = 4.0;
    return d;
}

} // namespace m2ndp::workloads
