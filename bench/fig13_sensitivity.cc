/**
 * @file
 * Fig. 13a: sensitivity of M2NDP speedup to NDP-unit frequency (1/2/3
 * GHz) and CXL load-to-use latency (150/300/600 ns). Paper: 1 GHz costs
 * ~10%, 3 GHz gains only ~2.5% (BW-bound); 2x/4x LtU *increase* the
 * speedup to 13.1x/19.4x average because only the baseline suffers.
 *
 * Fig. 13b: dirty-host-cacheline limit study — 20/40/80% of NDP-read data
 * requiring back-invalidation. Paper: 0.969/0.872/0.735 normalized
 * runtime (3.1-26.5% impact).
 */

#include "bench/bench_common.hh"
#include "workloads/histo.hh"
#include "workloads/olap.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

namespace {

Tick
runHistoWith(double freq_ghz, double dirty_ratio, std::uint64_t elems)
{
    SystemConfig sc = tableIvSystem();
    sc.device.unit.period = periodFromGHz(freq_ghz);
    sc.device.dirty_cache_ratio = dirty_ratio;
    System sys(sc);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    HistoWorkload w(sys, proc, 4096, elems);
    w.setup();
    auto r = w.runNdp(*rt);
    return r.runtime;
}

Tick
runOlapWith(double freq_ghz, std::uint64_t rows)
{
    SystemConfig sc = tableIvSystem();
    sc.device.unit.period = periodFromGHz(freq_ghz);
    System sys(sc);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    OlapWorkload w(sys, proc, rows);
    w.setup();
    return w.runNdp(*rt, OlapQuery::tpchQ6()).evaluate;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);
    std::uint64_t elems = args.scaled(1e6);
    std::uint64_t rows = args.scaled(1e6);

    // All sweep points are independent single-device simulations; run
    // them one per core (results identical to the serial sweep).
    const unsigned sweep_threads = args.sweepThreads();

    header("Fig. 13a", "NDP frequency sensitivity (OLAP Q6 Evaluate, "
                       "memory-bound)");
    const double kFreqs[] = {2.0, 1.0, 3.0};
    auto olap = sweepParallel(3, sweep_threads, [&](std::size_t i) {
        return runOlapWith(kFreqs[i], rows);
    });
    Tick t2 = olap[0];
    Tick t1 = olap[1];
    Tick t3 = olap[2];
    row("1 GHz vs 2 GHz runtime", static_cast<double>(t1) / t2, "x", 1.10);
    row("3 GHz vs 2 GHz runtime", static_cast<double>(t3) / t2, "x", 0.975);
    note("memory-BW bound: frequency barely matters beyond 2 GHz");

    header("Fig. 13a", "LtU sensitivity: M2NDP unaffected, baseline hurts");
    // M2NDP kernels never cross the link during execution; the baseline's
    // link throughput degrades with LtU through the outstanding-tag limit.
    GpuWorkloadDesc d;
    d.bytes_read = elems * 4;
    d.coalescing = 1.0;
    // Histogram sweep, shared by 13a (clean run) and 13b (dirty ratios).
    const double kDirty[] = {0.0, 0.2, 0.4, 0.8};
    auto histo = sweepParallel(4, sweep_threads, [&](std::size_t i) {
        return runHistoWith(2.0, kDirty[i], elems);
    });
    Tick m2 = histo[0];
    double base150 = 0;
    for (auto [ltu, paper] : {std::pair<Tick, double>{150 * kNs, 1.0},
                              {300 * kNs, 2.06},
                              {600 * kNs, 3.05}}) {
        GpuConfig base = GpuConfig::baselineOverCxl();
        base.link_ltu = ltu;
        auto est = gpuEstimate(base, d);
        double speedup =
            ticksToSeconds(est.runtime) / ticksToSeconds(m2);
        if (base150 == 0)
            base150 = speedup;
        char label[64];
        std::snprintf(label, sizeof(label),
                      "speedup growth @ LtU=%lu ns",
                      static_cast<unsigned long>(ltu / kNs));
        row(label, speedup / base150, "x", paper);
    }
    note("paper: average speedup grows 6.35x -> 13.1x -> 19.4x "
         "(growth 1x / 2.06x / 3.05x)");

    header("Fig. 13b", "dirty host cache: normalized runtime");
    Tick clean = histo[0];
    const double kPaper13b[] = {0.969, 0.872, 0.735};
    for (std::size_t i = 1; i < 4; ++i) {
        Tick dirty = histo[i];
        char label[64];
        std::snprintf(label, sizeof(label), "clean/dirty @ %.0f%% dirty",
                      kDirty[i] * 100);
        row(label, static_cast<double>(clean) / dirty, "x",
            kPaper13b[i - 1]);
    }
    note("paper shows normalized performance 0.969/0.872/0.735 (limit "
         "study; BI latency largely hidden by FGMT)");
    return 0;
}
