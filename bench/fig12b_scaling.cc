/**
 * @file
 * Fig. 12b: multi-device scaling — DLRM(SLS)-B256, OPT-2.7B and OPT-30B
 * sharded across 1/2/4/8 CXL-M2NDP devices with model parallelism.
 * Paper: 7.84x (DLRM), 7.69x (OPT-30B), 6.45x (OPT-2.7B) at 8 devices
 * (all-reduce limits the smaller model).
 */

#include "bench/bench_common.hh"
#include "workloads/dlrm.hh"
#include "workloads/opt.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);
    header("Fig. 12b", "scaling with multiple CXL-M2NDP devices");

    std::printf("  %-14s %8s %8s %8s %8s  (paper @8)\n", "workload", "1",
                "2", "4", "8");

    // DLRM-B256 (scaled table).
    {
        double base = 0;
        std::printf("  %-14s", "DLRM(SLS)-B256");
        for (unsigned d : {1u, 2u, 4u, 8u}) {
            SystemConfig sc = tableIvSystem();
            sc.num_devices = d;
            sc.threads = args.threads; // partitioned engine: 0 = auto
            System sys(sc);
            auto &proc = sys.createProcess();
            auto rt = sys.createRuntime(proc);
            DlrmConfig dc;
            dc.batch = args.full ? 256 : 64;
            dc.table_rows = args.scaled(40e3) * d;
            dc.devices = d;
            DlrmWorkload w(sys, proc, dc);
            w.setup();
            auto r = w.runNdp(*rt);
            // Per-device shard is constant => scaling = throughput ratio.
            double thpt = r.dram_bytes / ticksToSeconds(r.runtime);
            if (base == 0)
                base = thpt;
            std::printf(" %7.2fx", thpt / base);
        }
        std::printf("  (7.84x)\n");
    }

    // OPT models.
    for (bool big : {false, true}) {
        double base = 0;
        std::printf("  %-14s", big ? "OPT-30B(Gen)" : "OPT-2.7B(Gen)");
        for (unsigned d : {1u, 2u, 4u, 8u}) {
            SystemConfig sc = tableIvSystem();
            sc.num_devices = d;
            sc.threads = args.threads; // partitioned engine: 0 = auto
            System sys(sc);
            auto &proc = sys.createProcess();
            auto rt = sys.createRuntime(proc);
            OptConfig oc;
            oc.model = big ? OptModel::opt30b() : OptModel::opt2_7b();
            oc.sim_hidden = args.full ? 512 : 256;
            oc.sim_layers = 1;
            oc.devices = d;
            OptWorkload w(sys, proc, oc);
            w.setup();
            auto r = w.runNdp(*rt);
            Tick token =
                w.extrapolatedTokenTime(r.runtime) + w.allReduceTime();
            double tokens_per_s = 1.0 / ticksToSeconds(token);
            if (base == 0)
                base = tokens_per_s;
            std::printf(" %7.2fx", tokens_per_s / base);
        }
        std::printf("  (%s)\n", big ? "7.69x" : "6.45x");
    }
    note("all-reduce over CXL P2P limits the smaller model (paper 6.45x)");
    return 0;
}
