/**
 * @file
 * Fig. 1b: impact of load-to-use latency on KVS_A p95 latency — host
 * baseline with data in local memory (LtU 75 ns) vs CXL memory (150 ns,
 * 600 ns). Paper: normalized p95 of 1.0 / 2.2 / 7.4.
 */

#include "bench/bench_common.hh"
#include "workloads/kvstore.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

namespace {

double
p95ForLtu(Tick ltu, const BenchArgs &args)
{
    System sys(tableIvSystem(ltu));
    auto &proc = sys.createProcess();
    KvstoreConfig kc;
    kc.num_items = args.scaled(args.full ? 10e6 : 100e3);
    kc.num_buckets = std::max<std::uint64_t>(1, kc.num_items / 4);
    kc.num_requests = args.full ? 10000 : 2000;
    KvstoreWorkload kvs(sys, proc, kc);
    kvs.setup();
    auto r = kvs.runHostBaseline(sys.host());
    return r.latency_ns.percentile(95);
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);
    header("Fig. 1b", "KVS_A p95 latency vs load-to-use latency");

    double p95_local = p95ForLtu(85 * kNs, args); // LtU floor ~85 ns
    double p95_cxl = p95ForLtu(150 * kNs, args);
    double p95_slow = p95ForLtu(600 * kNs, args);

    row("local mem (LtU ~75ns)", 1.0, "x", 1.0);
    row("CXL mem (LtU 150ns)", p95_cxl / p95_local, "x", 2.2);
    row("CXL mem (LtU 600ns)", p95_slow / p95_local, "x", 7.4);
    std::printf("  (absolute p95: %.0f / %.0f / %.0f ns)\n", p95_local,
                p95_cxl, p95_slow);
    return 0;
}
