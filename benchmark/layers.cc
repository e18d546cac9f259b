#include "layers.hh"

#include <algorithm>

namespace ledger {

using namespace m2ndp;

namespace {

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

void
addCache(Counters &c, const std::string &p, const CacheStats &s)
{
    c[p + ".hits"] += static_cast<double>(s.read_hits + s.write_hits);
    c[p + ".misses"] += static_cast<double>(s.read_misses + s.write_misses);
    c[p + ".mshr_merges"] += static_cast<double>(s.mshr_merges);
    c[p + ".mshr_stalls"] += static_cast<double>(s.mshr_stalls);
    c[p + ".fills"] += static_cast<double>(s.fills);
    c["cache.miss_forwards"] += static_cast<double>(s.miss_forwards);
    c["cache.miss_path_packets"] +=
        static_cast<double>(s.miss_path_packets);
}

void
addDirection(Counters &c, const CxlDirStats &s)
{
    c["link.messages"] += static_cast<double>(s.messages);
    c["link.bytes"] += static_cast<double>(s.bytes);
    c["link.queueing_ticks"] += static_cast<double>(s.queueing);
}

} // namespace

Counters
snapshot(System &sys, const std::vector<const NdpRuntime *> &runtimes)
{
    Counters c;
    c["sim.events"] = static_cast<double>(sys.totalEventsScheduled());
    c["sim.host_ticks"] = static_cast<double>(sys.eq().now());

    for (unsigned d = 0; d < sys.numDevices(); ++d) {
        CxlMemoryExpander &dev = sys.device(d);
        const DeviceConfig &cfg = dev.config();

        const NdpUnitStats u = dev.aggregateUnitStats();
        c["ndp.instructions"] += static_cast<double>(u.instructions);
        c["ndp.uthreads"] += static_cast<double>(u.uthreads_completed);
        c["ndp.active_cycles"] += static_cast<double>(u.active_cycles);
        c["ndp.subcore_cycles"] += static_cast<double>(
            u.active_cycles * cfg.unit.subcores);
        c["ndp.ready_occupancy_integral"] +=
            static_cast<double>(u.ready_occupancy_integral);
        c["ndp.stall_mem_wait"] += static_cast<double>(u.stall_mem_wait);
        c["ndp.stall_no_ready"] += static_cast<double>(u.stall_no_ready);
        c["ndp.stall_fu_busy"] += static_cast<double>(u.stall_fu_busy);

        for (unsigned i = 0; i < cfg.num_units; ++i) {
            const TlbStats &t = dev.unit(i).dtlbStats();
            c["dtlb.hits"] += static_cast<double>(t.hits);
            c["dtlb.misses"] += static_cast<double>(t.misses);
            c["dtlb.fast_hits"] += static_cast<double>(t.fast_hits);
            addCache(c, "l1", dev.l1dCache(i).stats());
        }
        for (unsigned i = 0; i < dev.numL2Slices(); ++i)
            addCache(c, "l2", dev.l2Slice(i).stats());

        const DramStats dram = dev.dram().totalStats();
        c["dram.row_hits"] += static_cast<double>(dram.row_hits);
        c["dram.row_misses"] += static_cast<double>(dram.row_misses);
        c["dram.bytes"] += static_cast<double>(dram.bytes);
        c["dram.busy_ticks"] += static_cast<double>(dram.busy_ticks);
        // Channel-ticks available: the bus-utilization denominator.
        c["dram.channel_ticks"] += static_cast<double>(
            dev.dram().numChannels() * dev.eventQueue().now());

        const CrossbarStats &noc = dev.requestNoc().stats();
        c["noc.flits"] += static_cast<double>(noc.flits);
        c["noc.queueing_ticks"] += static_cast<double>(noc.total_queueing);

        const NdpControllerStats &ctl = dev.controller().stats();
        c["ctrl.launches"] += static_cast<double>(ctl.launches);
        c["ctrl.launches_rejected"] +=
            static_cast<double>(ctl.launches_rejected);
        c["ctrl.instances_completed"] +=
            static_cast<double>(ctl.instances_completed);
        c["ctrl.instances_faulted"] +=
            static_cast<double>(ctl.instances_faulted);

        const DeviceStats &ds = dev.deviceStats();
        c["device.m2func_calls"] += static_cast<double>(ds.m2func_calls);
        c["device.host_reads"] += static_cast<double>(ds.host_reads);
        c["device.host_writes"] += static_cast<double>(ds.host_writes);

        addDirection(c, sys.link(d).down().stats());
        addDirection(c, sys.link(d).up().stats());

        // Only the scalar fields: the read-latency Histogram keeps every
        // sample and is not copied.
        const HostPortStats &hp = sys.host(d).stats();
        c["host.port_reads"] += static_cast<double>(hp.reads);
        c["host.port_writes"] += static_cast<double>(hp.writes);
        c["host.link_aborts"] += static_cast<double>(hp.link_aborts);
    }

    for (const NdpRuntime *rt : runtimes) {
        const NdpRuntimeStats &s = rt->stats();
        c["host.launches"] += static_cast<double>(s.launches);
        c["host.completions"] += static_cast<double>(s.completions);
        c["host.overload_rejections"] +=
            static_cast<double>(s.overload_rejections);
        c["host.deadline_shed"] += static_cast<double>(s.deadline_shed);
        c["host.faulted_completions"] +=
            static_cast<double>(s.faulted_completions);
        c["peak.host_in_flight"] = std::max(
            c["peak.host_in_flight"], static_cast<double>(s.peak_in_flight));
    }
    return c;
}

Counters
delta(const Counters &after, const Counters &before)
{
    Counters d;
    for (const auto &[key, value] : after) {
        auto it = before.find(key);
        bool additive = key.rfind("peak.", 0) != 0;
        d[key] = additive && it != before.end() ? value - it->second : value;
    }
    return d;
}

Counters
layerRatios(const Counters &d)
{
    auto at = [&d](const char *key) {
        auto it = d.find(key);
        return it != d.end() ? it->second : 0.0;
    };
    const double insts = at("ndp.instructions");
    const double launches = at("ctrl.launches");
    const double msgs = at("link.messages");
    const double dtlb = at("dtlb.hits") + at("dtlb.misses");
    const double misses = at("l1.misses") + at("l2.misses");

    Counters r;
    r["sim.events_per_inst"] = ratio(at("sim.events"), insts);
    r["cxl.msgs_per_launch"] = ratio(msgs, launches);
    r["cxl.queueing_ns_per_msg"] =
        ratio(at("link.queueing_ticks"), msgs) / static_cast<double>(kNs);
    r["device.m2func_calls"] = at("device.m2func_calls");
    r["ndp.stall_mem_wait_frac"] =
        ratio(at("ndp.stall_mem_wait"), at("ndp.subcore_cycles"));
    r["ndp.ready_occupancy_avg"] =
        ratio(at("ndp.ready_occupancy_integral"), at("ndp.active_cycles"));
    r["ndp.dtlb_hit_rate"] = ratio(at("dtlb.hits"), dtlb);
    r["ndp.dtlb_fast_hit_rate"] = ratio(at("dtlb.fast_hits"), at("dtlb.hits"));
    r["cache.l1_hit_rate"] =
        ratio(at("l1.hits"), at("l1.hits") + at("l1.misses"));
    r["cache.l2_hit_rate"] =
        ratio(at("l2.hits"), at("l2.hits") + at("l2.misses"));
    r["cache.mshr_merge_ratio"] =
        ratio(at("l1.mshr_merges") + at("l2.mshr_merges"), misses);
    r["cache.packets_per_miss"] =
        ratio(at("cache.miss_path_packets"), at("cache.miss_forwards"));
    r["dram.row_hit_rate"] = ratio(
        at("dram.row_hits"), at("dram.row_hits") + at("dram.row_misses"));
    r["dram.bus_util"] = ratio(at("dram.busy_ticks"), at("dram.channel_ticks"));
    r["noc.queueing_ns_per_flit"] =
        ratio(at("noc.queueing_ticks"), at("noc.flits")) /
        static_cast<double>(kNs);
    r["host.peak_in_flight"] = at("peak.host_in_flight");
    return r;
}

} // namespace ledger
