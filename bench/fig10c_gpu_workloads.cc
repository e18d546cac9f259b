/**
 * @file
 * Fig. 10c: speedups over the GPU baseline (passive CXL memory) for the
 * GPU workloads. Configurations: GPU-NDP Iso-FLOPS (8 SMs), 4xFLOPS (32),
 * 16xFLOPS (128), Iso-Area (16.2 SMs), M2NDP (measured on the cycle-level
 * simulator), and NSU (host-generated addresses -> link-bound).
 * Paper: M2NDP up to 9.71x, 6.35x average; beats Iso-Area by 1.41x avg
 * and 16xFLOPS by 24%; NSU averages 0.97x (below baseline).
 */

#include "bench/bench_common.hh"
#include "workloads/dlrm.hh"
#include "workloads/graph.hh"
#include "workloads/histo.hh"
#include "workloads/opt.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

namespace {

struct Entry
{
    std::string name;
    GpuWorkloadDesc desc;
    Tick m2ndp_runtime;
    double paper_m2ndp; ///< paper speedup vs baseline
};

double
estimateSeconds(const GpuConfig &cfg, const GpuWorkloadDesc &w)
{
    return ticksToSeconds(gpuEstimate(cfg, w).runtime);
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);
    header("Fig. 10c", "GPU-workload speedup over GPU baseline");

    std::vector<Entry> entries;

    // --- measured M2NDP runtimes (cycle-level) ---
    auto run_in_fresh_system = [&](auto &&fn) {
        System sys(tableIvSystem());
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);
        return fn(sys, proc, *rt);
    };

    // --full is 8x the default sizes.
    const double full = args.full ? 8.0 : 1.0;
    std::uint64_t histo_elems = args.scaled(2e6 * full);
    // A graph needs at least two nodes.
    auto gnodes = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(2, args.scaled(16000 * full)));

    entries.push_back(run_in_fresh_system([&](System &sys,
                                              ProcessAddressSpace &proc,
                                              NdpRuntime &rt) {
        HistoWorkload w(sys, proc, 256, histo_elems);
        w.setup();
        auto r = w.runNdp(rt);
        return Entry{"HISTO256", w.gpuDesc(), r.runtime, 5.0};
    }));
    entries.push_back(run_in_fresh_system([&](System &sys,
                                              ProcessAddressSpace &proc,
                                              NdpRuntime &rt) {
        HistoWorkload w(sys, proc, 4096, histo_elems);
        w.setup();
        auto r = w.runNdp(rt);
        return Entry{"HISTO4096", w.gpuDesc(), r.runtime, 9.71};
    }));
    entries.push_back(run_in_fresh_system([&](System &sys,
                                              ProcessAddressSpace &proc,
                                              NdpRuntime &rt) {
        SpmvWorkload w(sys, proc, generateUniform(gnodes, gnodes * 36, 7));
        w.setup();
        auto r = w.runNdp(rt);
        return Entry{"SPMV", w.gpuDesc(), r.runtime, 6.0};
    }));
    entries.push_back(run_in_fresh_system([&](System &sys,
                                              ProcessAddressSpace &proc,
                                              NdpRuntime &rt) {
        PagerankWorkload w(sys, proc, generateUniform(gnodes, gnodes * 7, 9));
        w.setup();
        auto r = w.runNdp(rt, 1);
        return Entry{"PGRANK", w.gpuDesc(), r.runtime, 6.0};
    }));
    entries.push_back(run_in_fresh_system([&](System &sys,
                                              ProcessAddressSpace &proc,
                                              NdpRuntime &rt) {
        SsspWorkload w(sys, proc, generateUniform(gnodes, gnodes * 3, 13));
        w.setup();
        auto r = w.runNdp(rt, 48);
        return Entry{"SSSP", w.gpuDesc(), r.runtime, 5.5};
    }));
    for (unsigned batch : {4u, 32u, 256u}) {
        entries.push_back(run_in_fresh_system(
            [&](System &sys, ProcessAddressSpace &proc, NdpRuntime &rt) {
                DlrmConfig dc;
                dc.batch = batch;
                dc.table_rows = args.scaled(50e3 * full);
                DlrmWorkload w(sys, proc, dc);
                w.setup();
                auto r = w.runNdp(rt);
                double paper = batch == 4 ? 4.0 : batch == 32 ? 6.4 : 6.7;
                return Entry{"DLRM(SLS)-B" + std::to_string(batch),
                             w.gpuDesc(), r.runtime, paper};
            }));
    }
    for (bool big : {false, true}) {
        entries.push_back(run_in_fresh_system(
            [&](System &sys, ProcessAddressSpace &proc, NdpRuntime &rt) {
                OptConfig oc;
                oc.model = big ? OptModel::opt30b() : OptModel::opt2_7b();
                oc.sim_hidden = args.full ? 1024 : 512;
                OptWorkload w(sys, proc, oc);
                w.setup();
                auto r = w.runNdp(rt);
                // Extrapolate the slice to the full model per token.
                Tick token = w.extrapolatedTokenTime(r.runtime);
                return Entry{oc.model.name + "(Gen)", w.gpuDesc(), token,
                             big ? 6.8 : 6.7};
            }));
    }

    // --- baselines (interval models) + table ---
    const Tick io_launch = 1500 * kNs; // CXL.io_DR for all GPU-NDP configs
    std::printf("  %-16s %9s %9s %9s %9s %9s %9s (paper M2NDP)\n",
                "workload", "isoFLOPS", "4xFLOPS", "16xFLOPS", "isoArea",
                "M2NDP", "NSU");
    std::vector<double> sp_m2, sp_iso_area, sp_16x, sp_nsu;
    for (auto &e : entries) {
        double base =
            estimateSeconds(GpuConfig::baselineOverCxl(), e.desc);
        double m2 = ticksToSeconds(e.m2ndp_runtime);
        // GPU-NDP keeps SIMT inefficiencies but gains internal BW.
        double iso = estimateSeconds(GpuConfig::gpuNdp(8, io_launch), e.desc);
        double x4 = estimateSeconds(GpuConfig::gpuNdp(32, io_launch), e.desc);
        double x16 =
            estimateSeconds(GpuConfig::gpuNdp(128, io_launch), e.desc);
        double isoarea =
            estimateSeconds(GpuConfig::gpuNdp(16.2, io_launch), e.desc);
        // NSU: the host translates and sends every address; the command
        // stream saturates the CXL link (paper: below baseline).
        GpuWorkloadDesc nsu_desc = e.desc;
        nsu_desc.coalescing = e.desc.coalescing / 1.25; // per-access cmds
        double nsu =
            estimateSeconds(GpuConfig::baselineOverCxl(), nsu_desc);

        sp_m2.push_back(base / m2);
        sp_iso_area.push_back(base / isoarea);
        sp_16x.push_back(base / x16);
        sp_nsu.push_back(base / nsu);
        std::printf("  %-16s %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx "
                    "(%.2g)\n",
                    e.name.c_str(), base / iso, base / x4, base / x16,
                    base / isoarea, base / m2, base / nsu, e.paper_m2ndp);
    }
    row("GMEAN M2NDP", gmean(sp_m2), "x", 6.35);
    row("GMEAN GPU-NDP(Iso-Area)", gmean(sp_iso_area), "x", 4.5);
    row("M2NDP vs Iso-Area", gmean(sp_m2) / gmean(sp_iso_area), "x", 1.41);
    row("M2NDP vs 16xFLOPS", gmean(sp_m2) / gmean(sp_16x), "x", 1.24);
    row("GMEAN NSU", gmean(sp_nsu), "x", 0.97);
    return 0;
}
