/**
 * @file
 * Fig. 10a: OLAP query runtime (Evaluate / Filter / Etc breakdown) and
 * Evaluate-kernel speedups for Baseline (CPU host + passive CXL),
 * CPU-NDP, M2NDP, and Ideal NDP. Paper Evaluate speedups over baseline:
 * Q14 95/128/141(ideal shown per config), Q6 55/74/82, Q1.1 50/68/75,
 * Q1.2 42/56/62, Q1.3 44/59/65; gmean 55/73/81 (CPU-NDP / M2NDP / Ideal).
 */

#include "bench/bench_common.hh"
#include "host/cpu_model.hh"
#include "workloads/olap.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);
    header("Fig. 10a", "OLAP Evaluate speedup over CPU baseline");

    System sys(tableIvSystem());
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    OlapWorkload olap(sys, proc, args.scaled(args.full ? 16e6 : 2e6));
    olap.setup();

    // Paper reference speedups (Evaluate): {CPU-NDP, M2NDP, Ideal}.
    struct Ref
    {
        double cpu_ndp, m2ndp, ideal;
    };
    const Ref refs[] = {{95, 128, 141}, {55, 74, 82}, {50, 68, 75},
                        {42, 56, 62},   {44, 59, 65}};

    std::printf("  %-10s %10s %10s %10s %10s | breakdown eval/filter/etc "
                "(us)\n",
                "query", "base", "CPU-NDP", "M2NDP", "Ideal");
    std::vector<double> sp_cpu, sp_m2, sp_ideal;
    auto queries = OlapQuery::all();
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto &q = queries[i];
        bool verified = false;
        auto b = olap.runNdp(*rt, q, &verified);
        if (!verified)
            std::printf("  !! %s mask verification FAILED\n",
                        q.name.c_str());

        Tick base = olap.evaluateBaseline(q, CpuConfig::hostOverCxl());
        // CPU-NDP: 32 EPYC-class cores inside the device.
        auto cpu_ndp_cfg = CpuConfig::cpuNdp();
        Tick cpu_ndp =
            cpuScan(cpu_ndp_cfg, olap.evaluateBytes(q), 32,
                    olap.rows() * q.predicates.size())
                .runtime;
        Tick ideal = olap.evaluateIdeal(q);

        double s_cpu = static_cast<double>(base) / cpu_ndp;
        double s_m2 = static_cast<double>(base) / b.evaluate;
        double s_ideal = static_cast<double>(base) / ideal;
        sp_cpu.push_back(s_cpu);
        sp_m2.push_back(s_m2);
        sp_ideal.push_back(s_ideal);

        std::printf("  %-10s %9.1fx %9.1fx %9.1fx %9.1fx | %.1f/%.1f/%.1f  "
                    "(paper: %g/%g/%g)\n",
                    q.name.c_str(), 1.0, s_cpu, s_m2, s_ideal,
                    b.evaluate / 1e6, b.filter / 1e6, b.etc / 1e6,
                    refs[i].cpu_ndp, refs[i].m2ndp, refs[i].ideal);
    }
    row("GMEAN CPU-NDP speedup", gmean(sp_cpu), "x", 55);
    row("GMEAN M2NDP speedup", gmean(sp_m2), "x", 73);
    row("GMEAN Ideal speedup", gmean(sp_ideal), "x", 81);

    auto dram = sys.device().dram().totalStats();
    note("paper: M2NDP reaches ~90.7% of internal DRAM BW on Evaluate");
    std::printf("  measured DRAM row-hit rate: %.2f\n", dram.rowHitRate());
    return 0;
}
