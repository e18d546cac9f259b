/**
 * @file
 * Fig. 2: CXL.mem round-trip latency budget. The paper (after D. D.
 * Sharma [120]) reports 52-70 ns for a round trip through the protocol
 * stack and wires; load-to-use from the host is ~150 ns including the
 * cache-miss path and device-internal access. We measure the modeled
 * link and end-to-end latencies.
 */

#include "bench/bench_common.hh"
#include "common/stats.hh"

using namespace m2ndp;
using namespace m2ndp::bench;

int
main()
{
    header("Fig. 2", "CXL.mem latency budget");

    for (Tick ltu : {150 * kNs, 300 * kNs, 600 * kNs}) {
        System sys(tableIvSystem(ltu));
        auto &proc = sys.createProcess();
        Addr va = proc.allocate(1 << 20);
        Addr pa = *proc.translate(va);

        // Warm a row then measure steady-state reads.
        std::uint64_t tmp;
        sys.host().read(pa, &tmp, 8);
        Histogram lat;
        for (int i = 0; i < 50; ++i) {
            Tick t0 = sys.eq().now();
            sys.host().read(pa + 256 * (i + 1), &tmp, 8);
            lat.add(static_cast<double>(sys.eq().now() - t0) / kNs);
        }
        char label[64];
        std::snprintf(label, sizeof(label),
                      "load-to-use @ LtU=%lu ns config",
                      static_cast<unsigned long>(ltu / kNs));
        row(label, lat.mean(), "ns", static_cast<double>(ltu / kNs));

        double stack_rt =
            2.0 * sys.config().link.oneway_latency / kNs;
        row("  stack+wire round trip", stack_rt, "ns", 70.0);
    }
    note("paper Fig. 2: 52-70 ns stack round trip; ~150 ns load-to-use");
    return 0;
}
