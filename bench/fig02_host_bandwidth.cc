/**
 * @file
 * Fig. 2 companion: host-side CXL.mem bandwidth sweep. Fig. 2 of the
 * paper gives the latency budget; the bandwidth ceiling of the same path
 * (x8 PCIe 5.0-class link, 32 GB/s per direction at the 64 GB/s
 * full-duplex figure used in Table IV) is what limits host-centric
 * processing and motivates pushing compute to the expander.
 *
 * This bench drives the now allocation-free HostCxlPort read/write path
 * at scale: a sliding window of outstanding 64 B accesses sweeps the
 * outstanding-request count (1 -> 256, an MLP sweep) for reads, writes,
 * and mixed traffic, reporting achieved GB/s against the link ceiling.
 * With one outstanding access the path is latency-bound (~150 ns LtU);
 * at high MLP it must saturate the link serialization.
 */

#include "bench/bench_common.hh"

using namespace m2ndp;
using namespace m2ndp::bench;

namespace {

enum class Mix { Reads, Writes, Mixed };

/**
 * Issue @p total accesses of @p size bytes with at most @p window in
 * flight, returning achieved payload GB/s (simulated time).
 */
double
sweep(System &sys, Addr pa, Mix mix, unsigned window, std::uint64_t total,
      std::uint32_t size)
{
    auto &host = sys.host();
    auto &eq = sys.eq();
    std::uint64_t issued = 0, completed = 0;
    std::uint64_t payload = size;
    std::vector<std::uint8_t> data(size, 0xA5);

    Tick t0 = eq.now();
    auto pump = [&] {
        while (issued < total && issued - completed < window) {
            Addr a = pa + (issued * payload) % (256 * kMiB);
            bool write = mix == Mix::Writes ||
                         (mix == Mix::Mixed && (issued & 1) != 0);
            ++issued;
            if (write) {
                host.writeAsync(a, data.data(), size,
                                [&](Tick) { ++completed; });
            } else {
                host.readAsync(a, size, [&](Tick) { ++completed; });
            }
        }
    };

    pump();
    while (completed < total) {
        if (!eq.step())
            break;
        pump();
    }
    double seconds = ticksToSeconds(eq.now() - t0);
    return seconds > 0.0
               ? static_cast<double>(total * payload) / seconds / 1e9
               : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    header("Fig. 2b", "host CXL.mem bandwidth sweep (64 B accesses)");

    System sys(tableIvSystem(150 * kNs));
    auto &proc = sys.createProcess();
    Addr va = proc.allocate(256 * kMiB);
    Addr pa = *proc.translate(va);

    const std::uint64_t total = args.scaled(args.full ? 80000 : 20000);
    // Payload ceilings from the 64 GB/s-per-direction link: 64 B of
    // payload ride an 80 B flit one way (the other direction carries only
    // 16 B headers); mixed traffic loads both directions — 128 B payload
    // per 96 B in each direction.
    const double per_dir = kCxlLinkGbps;
    const double uni_ceiling = per_dir * 64.0 / 80.0;
    const double mixed_ceiling = per_dir * 128.0 / 96.0;

    // Warm pools and DRAM rows so the measured windows reflect the warm,
    // allocation-free steady state of the host access path.
    sweep(sys, pa, Mix::Mixed, 64, total / 4, 64);

    for (Mix mix : {Mix::Reads, Mix::Writes, Mix::Mixed}) {
        const char *name = mix == Mix::Reads    ? "reads"
                           : mix == Mix::Writes ? "writes"
                                                : "mixed";
        std::printf("  -- %s --\n", name);
        double ceiling = mix == Mix::Mixed ? mixed_ceiling : uni_ceiling;
        for (unsigned window : {1u, 4u, 16u, 64u, 256u}) {
            double gbps = sweep(sys, pa, mix, window, total, 64);
            char label[64];
            std::snprintf(label, sizeof(label), "  window %3u", window);
            row(label, gbps, "GB/s", window >= 256 ? ceiling : -1.0);
        }
    }
    note("reference column: link payload ceiling for the traffic mix");
    note("window=1 is latency-bound (~150 ns LtU -> ~0.5 GB/s)");
    return 0;
}
