/**
 * @file
 * Fig. 10b: KVStore p95 latency improvement over the host baseline for
 * M2uthread + {CXL.io_DR, CXL.io_RB, M2func}. Paper (KVS_A / KVS_B):
 * DR 0.58/0.59x, RB 0.29/0.29x (i.e. *worse* than baseline), M2func
 * 1.39/1.38x (38-39% better).
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
    header("Fig. 10b", "KVStore p95 latency improvement vs baseline");

    for (double get_frac : {0.5, 0.95}) {
        const char *name = get_frac == 0.5 ? "KVS_A" : "KVS_B";
        System sys(tableIvSystem());
        auto &proc = sys.createProcess();
        KvstoreConfig kc;
        kc.num_items = args.scaled(args.full ? 10e6 : 200e3);
        kc.num_buckets = std::max<std::uint64_t>(1, kc.num_items / 5);
        kc.num_requests = args.full ? 10000 : 2500;
        kc.get_fraction = get_frac;
        KvstoreWorkload kvs(sys, proc, kc);
        kvs.setup();

        auto base = kvs.runHostBaseline(sys.host());
        double base_p95 = base.latency_ns.percentile(95);

        std::printf("  %s (baseline p95 = %.0f ns)\n", name, base_p95);
        struct SchemeRef
        {
            OffloadScheme scheme;
            double paper;
        };
        const SchemeRef schemes[] = {
            {OffloadScheme::CxlIoDirect, 0.58},
            {OffloadScheme::CxlIoRingBuffer, 0.29},
            {OffloadScheme::M2Func, 1.39},
        };
        for (const auto &s : schemes) {
            NdpRuntimeConfig rc;
            rc.scheme = s.scheme;
            auto rt = sys.createRuntime(proc, rc);
            auto r = kvs.runNdp(*rt);
            double improvement =
                base_p95 / r.latency_ns.percentile(95);
            char label[64];
            std::snprintf(label, sizeof(label), "  M2uthread + %s",
                          offloadSchemeName(s.scheme));
            row(label, improvement, "x", s.paper);
        }
    }
    note(">1 = better than baseline; CXL.io offload *hurts* tail latency");
    return 0;
}
