/**
 * @file
 * Fig. 15: normalized energy and performance-per-energy. Paper: M2NDP
 * cuts energy up to 87.9% (80.3% overall; OLAP avg 83.9%, GPU workloads
 * avg 78.2%) and improves perf/energy up to 106x (32x average).
 * Also reproduces the Section IV-F area table.
 */

#include "bench/bench_common.hh"
#include "energy/area_model.hh"
#include "energy/energy_model.hh"
#include "host/cpu_model.hh"
#include "workloads/histo.hh"
#include "workloads/olap.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);

    header("Fig. 15", "energy: CPU OLAP (TPC-H Q6) baseline vs M2NDP");
    {
        System sys(tableIvSystem());
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);
        OlapWorkload olap(sys, proc, args.scaled(2e6));
        olap.setup();
        auto q = OlapQuery::tpchQ6();
        auto b = olap.runNdp(*rt, q);
        Tick base_eval =
            olap.evaluateBaseline(q, CpuConfig::hostOverCxl());

        EnergyActivity base_act;
        base_act.dram_bytes = olap.evaluateBytes(q);
        base_act.cxl_link_bytes =
            olap.evaluateBytes(q) * 2; // req+resp headers + data
        base_act.runtime = base_eval + b.filter + b.etc;
        auto base_e =
            computeEnergy(Platform::CpuHostPassiveCxl, base_act);

        auto us = sys.device().aggregateUnitStats();
        EnergyActivity ndp_act;
        ndp_act.dram_bytes = sys.device().dram().totalStats().bytes;
        ndp_act.cxl_link_bytes = 4096; // launches + masks stay in-device
        ndp_act.spad_accesses = us.spad_accesses;
        ndp_act.scalar_ops = us.scalar_instructions;
        ndp_act.vector_ops = us.vector_instructions;
        ndp_act.runtime = b.evaluate + b.filter + b.etc;
        ndp_act.compute_unit_seconds =
            32.0 * ticksToSeconds(b.evaluate);
        auto ndp_e = computeEnergy(Platform::M2Ndp, ndp_act);

        double reduction = 1.0 - ndp_e.total() / base_e.total();
        row("T6 energy reduction", reduction * 100, "%", 83.9);
        double perf_per_energy =
            (static_cast<double>(base_act.runtime) / ndp_act.runtime) /
            (ndp_e.total() / base_e.total());
        row("T6 perf/energy gain", perf_per_energy, "x", 60);
    }

    header("Fig. 15", "energy: GPU HISTO4096 baseline vs M2NDP");
    {
        System sys(tableIvSystem());
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);
        HistoWorkload histo(sys, proc, 4096, args.scaled(1e6));
        histo.setup();
        auto r = histo.runNdp(*rt);
        auto est = gpuEstimate(GpuConfig::baselineOverCxl(),
                               histo.gpuDesc());

        EnergyActivity base_act;
        base_act.dram_bytes = histo.usefulBytes();
        base_act.cxl_link_bytes = histo.usefulBytes();
        base_act.runtime = est.runtime;
        base_act.compute_unit_seconds =
            82.0 * ticksToSeconds(est.runtime);
        auto base_e =
            computeEnergy(Platform::GpuHostPassiveCxl, base_act);

        auto us = sys.device().aggregateUnitStats();
        EnergyActivity ndp_act;
        ndp_act.dram_bytes = sys.device().dram().totalStats().bytes;
        ndp_act.cxl_link_bytes = 4096;
        ndp_act.spad_accesses = us.spad_accesses;
        ndp_act.scalar_ops = us.scalar_instructions;
        ndp_act.vector_ops = us.vector_instructions;
        ndp_act.runtime = r.runtime;
        ndp_act.compute_unit_seconds = 32.0 * ticksToSeconds(r.runtime);
        auto ndp_e = computeEnergy(Platform::M2Ndp, ndp_act);

        double reduction = 1.0 - ndp_e.total() / base_e.total();
        row("HISTO4096 energy reduction", reduction * 100, "%", 78.2);
        double perf_per_energy =
            ticksToSeconds(est.runtime) / ticksToSeconds(r.runtime) /
            (ndp_e.total() / base_e.total());
        row("HISTO4096 perf/energy", perf_per_energy, "x", 32);
    }

    header("Table (Sec. IV-F)", "NDP unit area at 7 nm");
    NdpUnitArea area;
    row("register files", area.register_files, "mm^2", 0.25);
    row("L1/scratchpad", area.l1_scratchpad, "mm^2", 0.45);
    row("uthread slots (64)", area.per_uthread_slot * 64, "mm^2", 0.128);
    row("compute + I$/TLB", area.compute_units + area.icache_tlb, "mm^2");
    row("NDP unit total", area.total(), "mm^2", 0.83);
    DeviceArea dev;
    row("32 units total", dev.unitsTotal(), "mm^2", 26.4);
    GpuSmArea sm;
    row("iso-area GPU SMs", sm.smsForArea(dev.unitsTotal()), "SMs", 16.2);
    return 0;
}
