/**
 * @file
 * Fig. 12a: ablation — runtime normalized to full M2NDP when disabling
 * (1) M2func (using CXL.io ring buffer), (2) fine-grained uthread
 * spawning (threadblock-style whole-sub-core refill), (3) scalar units
 * (SIMT-style redundant address computation on the vector pipes).
 * Paper: geomean penalties 1.09x / 1.08x / 1.02x; maxima +141% / +50.6%
 * / +20.2%.
 */

#include "bench/bench_common.hh"
#include "workloads/dlrm.hh"
#include "workloads/graph.hh"
#include "workloads/histo.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

namespace {

struct Variant
{
    const char *name;
    bool fine_grained;
    bool scalar_units;
    OffloadScheme scheme;
    double paper_gmean;
};

Tick
runHisto(const Variant &v, std::uint64_t elems)
{
    SystemConfig sc = tableIvSystem();
    sc.device.unit.fine_grained_spawn = v.fine_grained;
    sc.device.unit.scalar_units = v.scalar_units;
    System sys(sc);
    auto &proc = sys.createProcess();
    NdpRuntimeConfig rc;
    rc.scheme = v.scheme;
    auto rt = sys.createRuntime(proc, rc);
    HistoWorkload w(sys, proc, 4096, elems);
    w.setup();
    return w.runNdp(*rt).runtime;
}

Tick
runSpmv(const Variant &v, std::uint32_t nodes)
{
    SystemConfig sc = tableIvSystem();
    sc.device.unit.fine_grained_spawn = v.fine_grained;
    sc.device.unit.scalar_units = v.scalar_units;
    System sys(sc);
    auto &proc = sys.createProcess();
    NdpRuntimeConfig rc;
    rc.scheme = v.scheme;
    auto rt = sys.createRuntime(proc, rc);
    SpmvWorkload w(sys, proc, generateUniform(nodes, nodes * 24, 7));
    w.setup();
    return w.runNdp(*rt).runtime;
}

Tick
runDlrm(const Variant &v, unsigned batch)
{
    SystemConfig sc = tableIvSystem();
    sc.device.unit.fine_grained_spawn = v.fine_grained;
    sc.device.unit.scalar_units = v.scalar_units;
    System sys(sc);
    auto &proc = sys.createProcess();
    NdpRuntimeConfig rc;
    rc.scheme = v.scheme;
    auto rt = sys.createRuntime(proc, rc);
    DlrmConfig dc;
    dc.batch = batch;
    dc.table_rows = 30000;
    DlrmWorkload w(sys, proc, dc);
    w.setup();
    return w.runNdp(*rt).runtime;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);
    header("Fig. 12a", "ablation: runtime normalized to full M2NDP");

    const Variant variants[] = {
        {"M2NDP (full)", true, true, OffloadScheme::M2Func, 1.0},
        {"w/o M2func (CXL.io_RB)", true, true,
         OffloadScheme::CxlIoRingBuffer, 1.09},
        {"w/o fine-grained uthread", false, true, OffloadScheme::M2Func,
         1.08},
        {"w/o scalar addr opt", true, false, OffloadScheme::M2Func, 1.02},
    };

    std::uint64_t histo_elems = args.scaled(1e6);
    // A graph needs at least two nodes.
    auto nodes = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(2, args.scaled(12000)));

    std::printf("  %-26s %10s %10s %10s %10s (paper gmean)\n", "variant",
                "HISTO4096", "SPMV", "DLRM-B4", "gmean");
    double base_h = 0, base_s = 0, base_d = 0;
    for (const auto &v : variants) {
        double h = ticksToSeconds(runHisto(v, histo_elems));
        double s = ticksToSeconds(runSpmv(v, nodes));
        double d = ticksToSeconds(runDlrm(v, 4));
        if (base_h == 0) {
            base_h = h;
            base_s = s;
            base_d = d;
        }
        double nh = h / base_h, ns = s / base_s, nd = d / base_d;
        std::printf("  %-26s %9.2fx %9.2fx %9.2fx %9.2fx (%.3g)\n", v.name,
                    nh, ns, nd, gmean({nh, ns, nd}), v.paper_gmean);
    }
    note("paper maxima: +141% (RB, fine-grained kernels), +50.6% (coarse "
         "spawn), +20.2% (no scalar units)");
    return 0;
}
