/**
 * @file
 * Fig. 11a: p95 latency-throughput curves of KVS_A for M2uthread with
 * CXL.io_RB / CXL.io_DR / M2func offloading (paper: M2func sustains
 * ~47.3x the throughput of CXL.io_DR, which serializes kernels).
 *
 * Fig. 11b: M2func impact when CXL.io and CXL.mem have the same 600 ns
 * latency — isolating the round-trip-count and concurrency advantages
 * from the protocol-latency advantage.
 */

#include "bench/bench_common.hh"
#include "workloads/kvstore.hh"

using namespace m2ndp;
using namespace m2ndp::bench;
using namespace m2ndp::workloads;

int
main(int argc, char **argv)
{
    auto args = BenchArgs::parse(argc, argv);
    header("Fig. 11a", "KVS_A p95 latency vs offered load");

    const double rates[] = {2e5, 5e5, 1e6, 2e6, 4e6};
    std::printf("  %-12s", "reqs/s");
    for (double r : rates)
        std::printf(" %9.0e", r);
    std::printf("\n");

    for (auto scheme : {OffloadScheme::CxlIoRingBuffer,
                        OffloadScheme::CxlIoDirect, OffloadScheme::M2Func}) {
        std::printf("  %-12s", offloadSchemeName(scheme));
        for (double rate : rates) {
            System sys(tableIvSystem());
            auto &proc = sys.createProcess();
            KvstoreConfig kc;
            kc.num_items = args.scaled(100e3);
            kc.num_buckets = std::max<std::uint64_t>(1, kc.num_items / 5);
            kc.num_requests = args.full ? 4000 : 1200;
            kc.arrival_rate = rate;
            KvstoreWorkload kvs(sys, proc, kc);
            kvs.setup();
            NdpRuntimeConfig rc;
            rc.scheme = scheme;
            auto rt = sys.createRuntime(proc, rc);
            auto r = kvs.runNdp(*rt);
            double p95_us = r.latency_ns.percentile(95) / 1000.0;
            if (p95_us > 999.0)
                std::printf("   (>999us)");
            else
                std::printf(" %8.2fus", p95_us);
        }
        std::printf("\n");
    }
    note("paper Fig. 11a: DR saturates ~47x below M2func; RB adds ~4 us");

    header("Fig. 11b", "M2func impact at equal 600 ns protocol latency");
    // Same latency for CXL.io and CXL.mem: M2func still wins on round
    // trips (launch+check = 2 one-way vs 8) and on kernel concurrency.
    for (auto scheme : {OffloadScheme::CxlIoRingBuffer,
                        OffloadScheme::CxlIoDirect, OffloadScheme::M2Func}) {
        System sys(tableIvSystem(600 * kNs));
        auto &proc = sys.createProcess();
        KvstoreConfig kc;
        kc.num_items = args.scaled(100e3);
        kc.num_buckets = std::max<std::uint64_t>(1, kc.num_items / 5);
        kc.num_requests = 1200;
        kc.arrival_rate = 1e6;
        KvstoreWorkload kvs(sys, proc, kc);
        kvs.setup();
        NdpRuntimeConfig rc;
        rc.scheme = scheme;
        rc.io.oneway_latency = 300 * kNs; // CXL.io one-way == CXL.mem-ish
        auto rt = sys.createRuntime(proc, rc);
        auto r = kvs.runNdp(*rt);
        char label[80];
        std::snprintf(label, sizeof(label), "KVS_A p95 @1M rps, %s",
                      offloadSchemeName(scheme));
        row(label, r.latency_ns.percentile(95) / 1000.0, "us");
        std::snprintf(label, sizeof(label), "  throughput, %s",
                      offloadSchemeName(scheme));
        row(label, r.throughput_rps / 1e6, "M rps");
    }
    note("paper Fig. 11b: M2func keeps 47.3x KVS throughput vs DR and "
         "12.1% latency gain vs RB even at equal protocol latency");
    return 0;
}
