/**
 * @file
 * End-to-end workload tests: every evaluation workload (Table V) runs its
 * real NDP kernels on a small input and verifies results against host
 * references.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "host/cpu_model.hh"
#include "host/gpu_model.hh"
#include "workloads/dlrm.hh"
#include "workloads/graph.hh"
#include "workloads/histo.hh"
#include "workloads/kvstore.hh"
#include "workloads/olap.hh"
#include "workloads/opt.hh"
#include "workloads/traffic.hh"

namespace m2ndp::workloads {
namespace {

class WorkloadTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SystemConfig cfg;
        cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        sys = std::make_unique<System>(cfg);
        proc = &sys->createProcess();
        rt = sys->createRuntime(*proc);
    }

    std::unique_ptr<System> sys;
    ProcessAddressSpace *proc = nullptr;
    std::unique_ptr<NdpRuntime> rt;
};

TEST(GraphGen, RmatShape)
{
    auto g = generateRmat(1024, 8192, 3);
    EXPECT_EQ(g.num_nodes, 1024u);
    EXPECT_EQ(g.numEdges(), 8192u);
    EXPECT_EQ(g.row_ptr.size() % 8, 0u);
    // Monotone row pointers.
    for (std::size_t i = 1; i < g.row_ptr.size(); ++i)
        EXPECT_GE(g.row_ptr[i], g.row_ptr[i - 1]);
    // Power-law-ish: max degree well above average.
    std::uint32_t max_deg = 0;
    for (std::uint32_t v = 0; v < g.num_nodes; ++v)
        max_deg = std::max(max_deg, g.row_ptr[v + 1] - g.row_ptr[v]);
    EXPECT_GT(max_deg, 8192u / 1024u * 4);
    // All column indices in range.
    for (auto c : g.col_idx)
        EXPECT_LT(c, g.num_nodes);
    // Deterministic.
    auto g2 = generateRmat(1024, 8192, 3);
    EXPECT_EQ(g.col_idx, g2.col_idx);
}

TEST_F(WorkloadTest, SpmvCorrectAndMeasured)
{
    SpmvWorkload spmv(*sys, *proc, generateRmat(2048, 16384, 7));
    spmv.setup();
    auto r = spmv.runNdp(*rt);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.runtime, 0u);
    EXPECT_GT(r.achieved_gbps, 1.0);
}

TEST_F(WorkloadTest, PagerankCorrect)
{
    PagerankWorkload pr(*sys, *proc, generateRmat(2048, 16384, 9));
    pr.setup();
    auto r = pr.runNdp(*rt, 1);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.runtime, 0u);
}

TEST_F(WorkloadTest, SsspConvergesCorrectly)
{
    SsspWorkload sssp(*sys, *proc, generateRmat(1024, 8192, 13));
    sssp.setup();
    auto r = sssp.runNdp(*rt, 64);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(sssp.iterationsRun(), 1u);
    EXPECT_LT(sssp.iterationsRun(), 64u); // converged before the cap
}

TEST_F(WorkloadTest, OlapEvaluateMaskCorrect)
{
    OlapWorkload olap(*sys, *proc, 32768);
    olap.setup();
    for (const auto &q : {OlapQuery::tpchQ6(), OlapQuery::ssbQ1_2()}) {
        bool verified = false;
        auto b = olap.runNdp(*rt, q, &verified);
        EXPECT_TRUE(verified) << q.name;
        EXPECT_GT(b.evaluate, 0u);
        EXPECT_GT(b.total(), b.evaluate);
    }
}

TEST_F(WorkloadTest, OlapBaselineOrdering)
{
    OlapWorkload olap(*sys, *proc, 262144);
    olap.setup();
    auto q = OlapQuery::tpchQ6();
    bool verified = false;
    auto ndp = olap.runNdp(*rt, q, &verified);
    ASSERT_TRUE(verified);
    Tick baseline = olap.evaluateBaseline(q, CpuConfig::hostOverCxl());
    Tick ideal = olap.evaluateIdeal(q);
    // Paper Fig. 10a: baseline >> M2NDP >= ideal.
    EXPECT_GT(baseline, 20 * ndp.evaluate);
    EXPECT_GT(ndp.evaluate, ideal);
}

TEST_F(WorkloadTest, Histo256Correct)
{
    HistoWorkload histo(*sys, *proc, 256, 65536);
    histo.setup();
    auto r = histo.runNdp(*rt);
    EXPECT_TRUE(r.verified);
}

TEST_F(WorkloadTest, Histo4096Correct)
{
    HistoWorkload histo(*sys, *proc, 4096, 65536);
    histo.setup();
    auto r = histo.runNdp(*rt);
    EXPECT_TRUE(r.verified);
}

TEST_F(WorkloadTest, KvstoreNdpAndBaseline)
{
    KvstoreConfig kc;
    kc.num_items = 40000;
    kc.num_buckets = 1 << 13; // load factor ~5: chains a few nodes deep
    kc.num_requests = 400;
    KvstoreWorkload kvs(*sys, *proc, kc);
    kvs.setup();

    auto ndp = kvs.runNdp(*rt);
    EXPECT_EQ(ndp.completed, kc.num_requests);
    EXPECT_TRUE(ndp.verified);
    double ndp_p95 = ndp.latency_ns.percentile(95);
    EXPECT_GT(ndp_p95, 100.0);

    auto base = kvs.runHostBaseline(sys->host());
    EXPECT_EQ(base.completed, kc.num_requests);
    double base_p95 = base.latency_ns.percentile(95);
    // Fig. 10b: M2func NDP improves p95 over the host baseline.
    EXPECT_LT(ndp_p95, base_p95);
}

TEST_F(WorkloadTest, KvstoreCxlIoSchemesHurtLatency)
{
    KvstoreConfig kc;
    kc.num_items = 10000;
    kc.num_buckets = 1 << 13;
    kc.num_requests = 200;
    KvstoreWorkload kvs(*sys, *proc, kc);
    kvs.setup();

    NdpRuntimeConfig rb;
    rb.scheme = OffloadScheme::CxlIoRingBuffer;
    auto rt_rb = sys->createRuntime(*proc, rb);
    auto res_rb = kvs.runNdp(*rt_rb);

    auto res_m2 = kvs.runNdp(*rt);
    // Fig. 10b: CXL.io ring-buffer offload is far slower than M2func.
    EXPECT_GT(res_rb.latency_ns.percentile(95),
              2.0 * res_m2.latency_ns.percentile(95));
}

TEST_F(WorkloadTest, KvstorePlacementAndHostWalkGolden)
{
    // 3000 nodes fill neither a whole staging buffer multiple nor a whole
    // page, so every boundary case of the table build is covered.
    KvstoreConfig kc;
    kc.num_items = 3000;
    kc.num_buckets = 1024;
    kc.num_requests = 200;
    KvstoreWorkload kvs(*sys, *proc, kc);
    kvs.setup();

    // FNV-1a over every mapped heap page: the runtime's code staging
    // page, then the bucket heads, the nodes with their zero pad and the
    // (still empty) response slots, one page each.
    const std::uint64_t page = proc->pageTable().pageSize();
    std::vector<std::uint8_t> bytes(page);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    unsigned pages = 0;
    for (Addr va = layout::kHeapVaBase; proc->translate(va); va += page) {
        sys->readVirtual(*proc, va, bytes.data(), page);
        for (std::uint8_t b : bytes)
            hash = (hash ^ b) * 0x100000001b3ull;
        ++pages;
    }
    EXPECT_EQ(pages, 4u);
    EXPECT_EQ(hash, 0x531173d9b257a1f5ull);

    // The host walk reads chain_depth_ for its hop count.
    auto base = kvs.runHostBaseline(sys->host());
    EXPECT_EQ(base.completed, kc.num_requests);
    EXPECT_EQ(base.latency_ns.percentile(50), 711.5);
    EXPECT_EQ(base.latency_ns.percentile(99), 1096.33);
}

TEST_F(WorkloadTest, KvstoreReplaysOneTrace)
{
    // A workload replays one request trace however often and through
    // whichever path it runs: the host walk and two NDP replays each see
    // the same requests, so each run's outcome is pinned exactly.
    KvstoreConfig kc;
    kc.num_items = 3000;
    kc.num_buckets = 1024;
    kc.num_requests = 200;
    KvstoreWorkload kvs(*sys, *proc, kc);
    kvs.setup();

    auto base = kvs.runHostBaseline(sys->host());
    EXPECT_EQ(base.completed, kc.num_requests);
    EXPECT_TRUE(base.verified);
    EXPECT_EQ(base.latency_ns.percentile(50), 711.5);
    EXPECT_EQ(base.latency_ns.percentile(99), 1096.33);

    // The first replay leaves the device warm for the second.
    const double p50[] = {564.25, 509.75};
    const double p99[] = {909.55099999999948, 625.29443999999978};
    for (unsigned replay = 0; replay < 2; ++replay) {
        SCOPED_TRACE(replay);
        auto ndp = kvs.runNdp(*rt);
        EXPECT_EQ(ndp.completed, kc.num_requests);
        EXPECT_TRUE(ndp.verified);
        EXPECT_EQ(ndp.latency_ns.percentile(50), p50[replay]);
        EXPECT_EQ(ndp.latency_ns.percentile(99), p99[replay]);
    }
}

TEST_F(WorkloadTest, DlrmSlsCorrect)
{
    DlrmConfig dc;
    dc.table_rows = 5000;
    dc.batch = 4;
    DlrmWorkload dlrm(*sys, *proc, dc);
    dlrm.setup();
    auto r = dlrm.runNdp(*rt);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.achieved_gbps, 1.0);
}

TEST_F(WorkloadTest, OptGemvCorrectAndExtrapolates)
{
    OptConfig oc;
    oc.sim_hidden = 256;
    oc.sim_layers = 1;
    oc.model = OptModel::opt2_7b();
    OptWorkload opt(*sys, *proc, oc);
    opt.setup();
    auto r = opt.runNdp(*rt);
    EXPECT_TRUE(r.verified);
    Tick token = opt.extrapolatedTokenTime(r.runtime);
    EXPECT_GT(token, r.runtime);
    // OPT-2.7B streams ~10.7 GB per token (FP32): at ~300 GB/s that is
    // tens of milliseconds.
    EXPECT_GT(token, 10 * kMs / 1000);
}

TEST(Traffic, OpenLoopHarnessTypedAccountingAndThreadBitExact)
{
    // Two-tenant open-loop overload run on a 2-device system: every
    // request must resolve to a completion or a typed error, and the
    // result digest must be bit-exact across engine thread counts (the
    // conservative-lookahead partitioned engine replays the same
    // schedule regardless of M2NDP_THREADS).
    auto run = [](unsigned threads) {
        SystemConfig cfg;
        cfg.num_devices = 2;
        cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        cfg.threads = threads;
        System sys(cfg);

        TrafficConfig tc;
        TrafficTenantConfig hi;
        hi.streams = 8;
        hi.requests = 200;
        hi.arrival_rate = 4e6;
        hi.weight = 4;
        hi.deadline = 100 * kUs;
        TrafficTenantConfig lo;
        lo.streams = 16;
        lo.requests = 600;
        lo.arrival_rate = 120e6; // saturating
        lo.queue_limit = 4;
        lo.deadline = 10 * kUs;
        lo.burst_prob = 0.1;
        lo.burst_size = 8;
        tc.tenants.push_back(hi);
        tc.tenants.push_back(lo);

        TrafficHarness h(sys, tc);
        return h.run();
    };

    TrafficResult r1 = run(1);
    // Typed accounting: nothing lost, nothing untyped.
    EXPECT_EQ(r1.completed + r1.rejected + r1.shed + r1.faulted,
              r1.offered);
    EXPECT_EQ(r1.offered, 800u);
    EXPECT_GT(r1.completed, 0u);
    EXPECT_GT(r1.rejected + r1.shed, 0u)
        << "the saturating tenant never hit admission control";
    // The high-priority tenant is not starved by the overload.
    EXPECT_EQ(r1.tenants[0].completed, r1.tenants[0].offered)
        << "hi-pri tenant lost requests to a lo-pri overload";
    EXPECT_GT(r1.latency.count(), 0u);

    TrafficResult r2 = run(2);
    TrafficResult r4 = run(4);
    EXPECT_EQ(r1.checksum(), r2.checksum())
        << "traffic run diverged between 1 and 2 engine threads";
    EXPECT_EQ(r1.checksum(), r4.checksum())
        << "traffic run diverged between 1 and 4 engine threads";
}

// QoS operating points on one device, fixed at round fractions of the
// ~128 Mreq/s knee that fig16's sweep finds (fixed rates keep the
// goldens continuous in the capacity instead of jumping grid steps).
constexpr double kQosKnee = 128e6;

TrafficTenantConfig
qosTenant(double rate)
{
    TrafficTenantConfig t;
    t.streams = 64;
    t.requests = 2000;
    t.arrival_rate = rate;
    t.queue_limit = 16;
    t.policy = StreamPolicy::SkipAndContinue;
    return t;
}

TrafficResult
runQosPoint(std::vector<TrafficTenantConfig> tenants, bool faults)
{
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    if (faults) {
        cfg.fault.enabled = true;
        cfg.fault.bit_error_rate = 1e-4;
    }
    System sys(cfg);
    TrafficConfig tc;
    tc.tenants = std::move(tenants);
    TrafficHarness h(sys, tc);
    return h.run();
}

TEST(Traffic, QosKneeGoodputGolden)
{
    // Driven at 3x the knee, an open-loop system's goodput plateau is its
    // service capacity.
    TrafficResult r = runQosPoint({qosTenant(3.0 * kQosKnee)}, false);
    EXPECT_EQ(r.offered, 2000u);
    EXPECT_EQ(r.completed, 2000u);
    EXPECT_EQ(r.end_tick, 9'870'375u);
    EXPECT_EQ(std::llround(r.goodput_rps), 225'614'283);
}

TEST(Traffic, QosP99AtSeventyPercentOfKneeGolden)
{
    TrafficResult r = runQosPoint({qosTenant(90e6)}, false);
    EXPECT_EQ(r.completed, 2000u);
    EXPECT_EQ(r.latency.p99(), 607u);
}

TEST(Traffic, QosOverloadShedsTypedAndKeepsProgressGolden)
{
    // A latency tenant plus a bursty batch tenant at ~2x the knee with
    // link faults on. Shallow queues and a tight deadline force the
    // degradation through typed rejections and sheds.
    TrafficTenantConfig hi = qosTenant(kQosKnee / 8.0);
    hi.streams = 16;
    hi.requests = 500;
    hi.weight = 4;
    hi.deadline = 100 * kUs;
    TrafficTenantConfig lo = qosTenant(2.0 * kQosKnee);
    lo.queue_limit = 8;
    lo.deadline = 4 * kUs;
    lo.burst_prob = 0.05;
    lo.burst_size = 16;
    lo.policy = StreamPolicy::Retry;
    lo.retry_backoff = 2 * kUs;
    lo.rate_limit = 3.0 * kQosKnee;
    lo.rate_burst = 64;
    TrafficResult r = runQosPoint({hi, lo}, true);

    EXPECT_EQ(r.offered, 2500u);
    EXPECT_EQ(r.completed, 1423u);
    EXPECT_EQ(r.rejected, 935u);
    EXPECT_EQ(r.shed, 142u);
    EXPECT_EQ(r.faulted, 0u);
    EXPECT_EQ(r.completed + r.rejected + r.shed + r.faulted, r.offered);
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].completed, 500u);
    EXPECT_EQ(r.tenants[0].offered, 500u);
    EXPECT_EQ(r.tenants[1].completed, 923u);
    EXPECT_EQ(r.tenants[1].offered, 2000u);
    EXPECT_EQ(r.checksum(), 0x2a147600ceffe5b5ull);
}

TEST(HostModels, GpuEstimateShapes)
{
    GpuWorkloadDesc w;
    w.bytes_read = 1ull << 30;
    w.coalescing = 1.0;
    w.ops_per_byte = 0.1;

    // Baseline over CXL is link-bound; GPU-NDP inside the device is not.
    auto base = gpuEstimate(GpuConfig::baselineOverCxl(), w);
    auto ndp = gpuEstimate(GpuConfig::gpuNdp(16.2, 1500 * kNs), w);
    EXPECT_GT(base.runtime, 3 * ndp.runtime);

    // Iso-FLOPS (8 SMs) is concurrency-limited vs 32 SMs.
    auto iso = gpuEstimate(GpuConfig::gpuNdp(8, 1500 * kNs), w);
    auto big = gpuEstimate(GpuConfig::gpuNdp(32, 1500 * kNs), w);
    EXPECT_GT(iso.runtime, big.runtime);

    // Poor coalescing inflates runtime.
    GpuWorkloadDesc irr = w;
    irr.coalescing = 0.4;
    auto irr_est = gpuEstimate(GpuConfig::gpuNdp(32, 1500 * kNs), irr);
    EXPECT_GT(irr_est.runtime, big.runtime);
}

TEST(HostModels, OccupancySimThreadblockEffect)
{
    // Fig. 6a: coarse threadblocks hold slots until the slowest warp
    // finishes; per-uthread allocation keeps more contexts active.
    // Fine-grained (M2NDP-like) allocation has no threadblock cap.
    auto fine = simulateOccupancy(48, 1, 2000, 0.8, 11, 48);
    auto tb4 = simulateOccupancy(48, 4, 2000, 0.8, 11);
    auto tb8 = simulateOccupancy(48, 8, 2000, 0.8, 11);
    double f = averageOccupancy(fine);
    double c4 = averageOccupancy(tb4);
    double c8 = averageOccupancy(tb8);
    EXPECT_GT(f, c4);
    EXPECT_GT(c4, c8);
    EXPECT_GT(f, 0.85);
    EXPECT_LT(c8, 0.8);
}

TEST(HostModels, CpuModelRegimes)
{
    auto cxl = CpuConfig::hostOverCxl();
    auto local = CpuConfig::hostLocal();
    // Single-thread scan over CXL is slow (latency-bound, ~3.4 GB/s).
    auto r1 = cpuScan(cxl, 1ull << 30, 1, 1ull << 28);
    EXPECT_LT(r1.achieved_gbps, 5.0);
    // Local memory + all cores approaches the BW ceiling.
    auto r2 = cpuScan(local, 1ull << 30, 64, 1ull << 28);
    EXPECT_GT(r2.achieved_gbps, 100.0);
    // Pointer chase latency is hops x LtU.
    EXPECT_EQ(cpuPointerChase(cxl, 4), 4 * cxl.mem_latency);
}

} // namespace
} // namespace m2ndp::workloads
