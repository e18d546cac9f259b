/**
 * @file
 * Quickstart: the Fig. 4 running example — C = A + B offloaded to the
 * CXL memory expander with M2NDP, driven through the stream API.
 *
 * Walks through the full user-level flow:
 *   1. build a Table IV system (host + CXL link + CXL-M2NDP device),
 *   2. create a process and its NDP runtime (the driver allocates the
 *      M2func region and installs the packet-filter entry via CXL.io),
 *   3. place data in CXL memory,
 *   4. register an NDP kernel written in RISC-V+RVV assembly,
 *   5. launch it on a command stream (`NdpStream::launch` returns an
 *      `NdpEvent` to poll or wait on) — each launch is one CXL.mem store
 *      plus a deferred load (Fig. 5a), and independent streams run their
 *      kernels concurrently,
 *   6. wait on the event and check results.
 *
 * Build: cmake --build build && ./build/examples/quickstart
 */

#include <cstdio>
#include <vector>

#include "system/system.hh"

using namespace m2ndp;

namespace {

/** One uthread per 32 B of A: loads 8 floats of A and B, stores A+B. */
const char *kVecAdd = R"(
    .name vecadd
    # x1 = &A[i] (the uthread's mapped address), x2 = byte offset
    # kernel args (in the scratchpad arg window): [0]=B base, [8]=C base
    vsetvli x0, x0, e32, m1
    li  x3, %args
    ld  x4, 0(x3)
    ld  x5, 8(x3)
    vle32.v v1, (x1)
    add x6, x4, x2
    vle32.v v2, (x6)
    vfadd.vv v3, v1, v2
    add x7, x5, x2
    vse32.v v3, (x7)
)";

} // namespace

int
main()
{
    // 1. System per Table IV: 32 NDP units @ 2 GHz, 32-channel LPDDR5
    //    (409.6 GB/s), CXL 3.0 x8 link with 150 ns load-to-use.
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    System sys(cfg);

    // 2. Process + runtime (one-time CXL.io init happens here). The
    //    runtime spans every device; streams bind to one device each.
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    NdpStream &stream = rt->createStream();

    // 3. Data in CXL memory.
    constexpr unsigned kN = 65536;
    Addr a = proc.allocate(kN * 4), b = proc.allocate(kN * 4),
         c = proc.allocate(kN * 4);
    std::vector<float> va(kN), vb(kN);
    for (unsigned i = 0; i < kN; ++i) {
        va[i] = 0.5f * i;
        vb[i] = 1000.0f - i;
    }
    sys.writeVirtual(proc, a, va.data(), kN * 4);
    sys.writeVirtual(proc, b, vb.data(), kN * 4);

    // 4. Register the kernel: declares 8 int + 4 vector registers so the
    //    NDP units can provision uthread slots exactly (Section III-D).
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kVecAdd, res);
    if (kid < 0) {
        std::fprintf(stderr, "kernel registration failed: %s\n",
                     ndpErrorName(ndpErrorOf(kid)));
        return 1;
    }
    // vecadd is a single body section.
    std::printf("registered kernel id=%lld (%zu static instructions)\n",
                static_cast<long long>(kid),
                sys.device().controller().kernelById(kid)->code.sections[0]
                    .code.size());

    // 5. Launch on the stream: uthread pool region = array A, two 64-bit
    //    arguments packed straight into the 64 B M2func payload.
    Tick t0 = sys.eq().now();
    NdpEvent ev = stream.launch(
        LaunchDesc(kid, a, a + kN * 4).arg(b).arg(c));

    // 6. The event is pollable (ev.done()) or awaitable; wait() drives
    //    the simulation until the deferred return-value read arrives.
    std::int64_t iid = ev.wait();
    if (iid < 0) {
        std::fprintf(stderr, "launch failed: %s\n",
                     ndpErrorName(ndpErrorOf(iid)));
        return 1;
    }
    Tick elapsed = sys.eq().now() - t0;

    std::vector<float> vc(kN);
    sys.readVirtual(proc, c, vc.data(), kN * 4);
    unsigned errors = 0;
    for (unsigned i = 0; i < kN; ++i) {
        if (vc[i] != va[i] + vb[i])
            ++errors;
    }

    auto stats = sys.device().aggregateUnitStats();
    auto dram = sys.device().dram().totalStats();
    std::printf("instance %lld finished in %.2f us (simulated)\n",
                static_cast<long long>(iid), elapsed / 1e6);
    std::printf("  uthreads: %lu   instructions: %lu   errors: %u\n",
                stats.uthreads_completed, stats.instructions, errors);
    std::printf("  DRAM traffic: %.2f MiB at %.1f GB/s (row hit %.0f%%)\n",
                dram.bytes / 1048576.0,
                bytesPerSecond(dram.bytes, elapsed) / 1e9,
                dram.rowHitRate() * 100);
    std::printf("  poll status: %ld (0 = finished)\n",
                static_cast<long>(rt->pollKernelStatus(iid)));
    return errors == 0 ? 0 : 1;
}
