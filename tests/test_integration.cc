/**
 * @file
 * End-to-end integration tests: host -> CXL link -> packet filter ->
 * NDP controller -> uthreads on NDP units -> caches/NoC/DRAM, using real
 * assembly kernels and the Table II user-level API.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <deque>

#include "common/stats.hh"
#include "system/system.hh"
#include "workloads/opt.hh"

namespace m2ndp {
namespace {

/** Fig. 4's running example: C = A + B, one uthread per 32 B of A. */
const char *kVecAddKernel = R"(
    .name vecadd
    # x1 = &A[i], x2 = byte offset; args: [0]=B base, [8]=C base
    vsetvli x0, x0, e32, m1
    li  x3, %args
    ld  x4, 0(x3)
    ld  x5, 8(x3)
    vle32.v v1, (x1)
    add x6, x4, x2
    vle32.v v2, (x6)
    vadd.vv v3, v1, v2
    add x7, x5, x2
    vse32.v v3, (x7)
)";

/** Fig. 8's example: global reduction with scratchpad + AMO. */
const char *kReduceKernel = R"(
    .name reduce64
    .init
        li x3, %spad
        sd x0, 0(x3)
    .body
        vsetvli x0, x0, e64, m1
        vle64.v v2, (x1)
        vmv.v.i v1, 0
        vredsum.vs v3, v2, v1
        vmv.x.s x4, v3
        li x3, %spad
        amoadd.d x4, x4, (x3)
    .fini
        # one uthread per unit accumulates the unit-local sum globally
        andi x5, x2, 63
        bne  x5, x0, skip
        li x3, %spad
        ld x4, 0(x3)
        li x6, %args
        ld x7, 0(x6)
        amoadd.d x4, x4, (x7)
    skip:
        exit
)";

LaunchDesc
launchWith(std::int64_t kid, Addr base, Addr bound,
           std::initializer_list<std::uint64_t> vals)
{
    LaunchDesc d(kid, base, bound);
    for (auto v : vals)
        d.arg(v);
    return d;
}

class IntegrationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SystemConfig cfg;
        cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        sys = std::make_unique<System>(cfg);
        process = &sys->createProcess();
        runtime = sys->createRuntime(*process);
    }

    std::unique_ptr<System> sys;
    ProcessAddressSpace *process = nullptr;
    std::unique_ptr<NdpRuntime> runtime;
};

TEST_F(IntegrationTest, LoadToUseLatencyCalibrated)
{
    Addr va = process->allocate(4 * kKiB);
    Addr pa = *process->translate(va);
    // Warm nothing: first read pays DRAM row activation; measure a few.
    Histogram lat;
    for (int i = 0; i < 20; ++i) {
        Tick t0 = sys->eq().now();
        std::uint64_t v;
        sys->host().read(pa + i * 256, &v, 8);
        lat.add(static_cast<double>(sys->eq().now() - t0) / kNs);
    }
    // Table IV: ~150 ns load-to-use.
    EXPECT_GT(lat.mean(), 110.0);
    EXPECT_LT(lat.mean(), 190.0);
}

TEST_F(IntegrationTest, VecAddEndToEnd)
{
    constexpr unsigned kN = 16384; // 64 KiB per array
    Addr a = process->allocate(kN * 4);
    Addr b = process->allocate(kN * 4);
    Addr c = process->allocate(kN * 4);
    std::vector<std::uint32_t> va(kN), vb(kN);
    for (unsigned i = 0; i < kN; ++i) {
        va[i] = i;
        vb[i] = 1000000 + i;
    }
    sys->writeVirtual(*process, a, va.data(), kN * 4);
    sys->writeVirtual(*process, b, vb.data(), kN * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kVecAddKernel, res);
    ASSERT_GT(kid, 0);

    Tick start = sys->eq().now();
    std::int64_t iid = runtime->launchKernelSync(
        launchWith(kid, a, a + kN * 4, {b, c}));
    ASSERT_GT(iid, 0);
    Tick elapsed = sys->eq().now() - start;

    // Results must be exact.
    std::vector<std::uint32_t> vc(kN);
    sys->readVirtual(*process, c, vc.data(), kN * 4);
    for (unsigned i = 0; i < kN; ++i)
        ASSERT_EQ(vc[i], va[i] + vb[i]) << "at index " << i;

    // Timing sanity: 192 KiB of traffic at ~400 GB/s plus overheads ->
    // between 0.5 us and 50 us.
    EXPECT_GT(elapsed, 500u * kNs / 1000);
    EXPECT_LT(elapsed, 50 * kUs);

    // All 2048 uthreads ran (16384 elements / 8 per uthread).
    auto stats = sys->device().aggregateUnitStats();
    EXPECT_EQ(stats.uthreads_completed, kN / 8);
    EXPECT_EQ(runtime->pollKernelStatus(iid), KernelStatus::Finished);
}

TEST(CycleDriver, SixtyFourUnitsEachRunOneUthread)
{
    // The cycle driver keeps one armed bit per unit. A 64 x 32 B pool
    // hands unit u exactly offset u, so every unit spawns once and unit
    // 63 runs on the mask's top bit.
    constexpr unsigned kUnits = 64;
    constexpr unsigned kN = kUnits * 8; // 8 x 32-bit elements per uthread
    SystemConfig cfg;
    cfg.device.num_units = kUnits;
    System sys(cfg);
    ProcessAddressSpace &proc = sys.createProcess();
    auto runtime = sys.createRuntime(proc);
    Addr a = proc.allocate(kN * 4), b = proc.allocate(kN * 4),
         c = proc.allocate(kN * 4);
    std::vector<std::uint32_t> va(kN), vb(kN);
    for (unsigned i = 0; i < kN; ++i) {
        va[i] = 3 * i;
        vb[i] = 7000 + i;
    }
    sys.writeVirtual(proc, a, va.data(), kN * 4);
    sys.writeVirtual(proc, b, vb.data(), kN * 4);
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kVecAddKernel, res);
    ASSERT_GT(kid, 0);
    ASSERT_GT(runtime->launchKernelSync(launchWith(kid, a, a + kN * 4,
                                                   {b, c})),
              0);

    std::vector<std::uint32_t> vc(kN);
    sys.readVirtual(proc, c, vc.data(), kN * 4);
    for (unsigned i = 0; i < kN; ++i)
        ASSERT_EQ(vc[i], va[i] + vb[i]) << "at index " << i;
    ASSERT_EQ(sys.device().config().num_units, kUnits);
    for (unsigned u = 0; u < kUnits; ++u)
        EXPECT_EQ(sys.device().unit(u).stats().uthreads_completed, 1u)
            << "unit " << u;
}

TEST_F(IntegrationTest, EventsPerInstructionWithinBudget)
{
    // Event accounting for the fused access path + ready-list scheduler:
    // response fusion parks completions on the cycle driver, and the
    // run-until-stall driver shares ONE Ticker across all units and
    // consumes quiet cycle edges in place (EventQueue::tryAdvance), so
    // the per-unit-per-cycle tick events that used to dominate (~70% of
    // the 1.06 events/inst after PR 4) are gone. The vecadd end-to-end
    // run now schedules ~0.22 events per simulated instruction; budget
    // 0.5 leaves slack for model changes while still failing loudly if
    // per-unit tick events or a per-access event chain come back. The
    // figure is deterministic, so the budget has real teeth.
    constexpr unsigned kN = 32768;
    Addr a = process->allocate(kN * 4);
    Addr b = process->allocate(kN * 4);
    Addr c = process->allocate(kN * 4);
    std::vector<std::uint32_t> va(kN, 1), vb(kN, 2);
    sys->writeVirtual(*process, a, va.data(), kN * 4);
    sys->writeVirtual(*process, b, vb.data(), kN * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kVecAddKernel, res);
    ASSERT_GT(kid, 0);

    std::uint64_t events0 = sys->totalEventsScheduled();
    ASSERT_GT(runtime->launchKernelSync(launchWith(kid, a, a + kN * 4,
                                                   {b, c})),
              0);
    std::uint64_t events = sys->totalEventsScheduled() - events0;
    std::uint64_t insts = sys->device().aggregateUnitStats().instructions;
    ASSERT_GT(insts, 0u);
    double events_per_inst =
        static_cast<double>(events) / static_cast<double>(insts);
    EXPECT_LT(events_per_inst, 0.5)
        << "access-path event fusion / run-until-stall ticking regressed: "
        << events << " events for " << insts << " instructions";
}

TEST_F(IntegrationTest, VecAdd256KiMissPathAndTlbCountsGolden)
{
    // Fig. 4's vecadd over 2^18 floats on the Table IV system: exact event,
    // miss-path and D-TLB counts of the fused access path. They read
    // 0.1372 events/inst, 1 pooled packet per forwarded miss (fills ride
    // the original packet) and a 0.672257 D-TLB fast-hit rate. No
    // resource is booked more than 372.5 ns ahead of now().
    constexpr unsigned kN = 1u << 18;
    Addr a = process->allocate(kN * 4), b = process->allocate(kN * 4),
         c = process->allocate(kN * 4);
    std::vector<float> va(kN), vb(kN);
    for (unsigned i = 0; i < kN; ++i) {
        va[i] = 0.25f * static_cast<float>(i);
        vb[i] = 2.0f * static_cast<float>(i);
    }
    sys->writeVirtual(*process, a, va.data(), kN * 4);
    sys->writeVirtual(*process, b, vb.data(), kN * 4);
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(R"(
        .name vecadd
        vsetvli x0, x0, e32, m1
        li  x3, %args
        ld  x4, 0(x3)
        ld  x5, 8(x3)
        vle32.v v1, (x1)
        add x6, x4, x2
        vle32.v v2, (x6)
        vfadd.vv v3, v1, v2
        add x7, x5, x2
        vse32.v v3, (x7)
    )",
                                               res);
    ASSERT_GT(kid, 0);

    Tick t0 = sys->eq().now();
    std::uint64_t events0 = sys->totalEventsScheduled();
    ASSERT_GT(runtime->launchKernelSync(launchWith(kid, a, a + kN * 4,
                                                   {b, c})),
              0);
    CxlMemoryExpander &dev = sys->device();
    NdpUnitStats units = dev.aggregateUnitStats();
    TlbStats dtlb;
    std::uint64_t miss_forwards = 0, miss_path_packets = 0;
    for (unsigned u = 0; u < dev.config().num_units; ++u) {
        const TlbStats &s = dev.unit(u).dtlbStats();
        dtlb.hits += s.hits;
        dtlb.misses += s.misses;
        dtlb.fast_hits += s.fast_hits;
        dtlb.evictions += s.evictions;
        miss_forwards += dev.l1dCache(u).stats().miss_forwards;
        miss_path_packets += dev.l1dCache(u).stats().miss_path_packets;
    }
    for (unsigned i = 0; i < dev.numL2Slices(); ++i) {
        miss_forwards += dev.l2Slice(i).stats().miss_forwards;
        miss_path_packets += dev.l2Slice(i).stats().miss_path_packets;
    }

    EXPECT_EQ(units.instructions, 327'680u);
    EXPECT_EQ(units.uthreads_completed, 32'768u);
    EXPECT_EQ(sys->totalEventsScheduled() - events0, 44'957u);
    EXPECT_EQ(sys->eq().now() - t0, 13'893'953u);
    EXPECT_EQ(miss_forwards, 131'171u);
    EXPECT_EQ(miss_path_packets, 131'171u);
    EXPECT_EQ(dtlb.hits, 98'208u);
    EXPECT_EQ(dtlb.misses, 96u);
    EXPECT_EQ(dtlb.fast_hits, 66'021u);
    EXPECT_EQ(dtlb.evictions, 0u);
    EXPECT_EQ(sys->maxBookingLookahead(), 372'500u);
}

TEST_F(IntegrationTest, SchedulerStatsAndDeterminism)
{
    // The ready-list scheduler's observability counters on a memory-bound
    // kernel, and their bit-exactness across two fresh same-seed systems
    // (the digest test in test_memory_system.cc covers the architectural
    // stats; this covers the scheduler-internal ones).
    auto run_once = [](NdpUnitStats &out) {
        SystemConfig cfg;
        cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        System fresh(cfg);
        auto &proc = fresh.createProcess();
        auto rt = fresh.createRuntime(proc);
        constexpr unsigned kN = 16384;
        Addr a = proc.allocate(kN * 4), b = proc.allocate(kN * 4),
             c = proc.allocate(kN * 4);
        std::vector<std::uint32_t> va(kN, 3), vb(kN, 4);
        fresh.writeVirtual(proc, a, va.data(), kN * 4);
        fresh.writeVirtual(proc, b, vb.data(), kN * 4);
        KernelResources res;
        res.num_int_regs = 8;
        res.num_vector_regs = 4;
        std::int64_t kid = rt->registerKernel(R"(
            .name vecadd
            vsetvli x0, x0, e32, m1
            li  x3, %args
            ld  x4, 0(x3)
            ld  x5, 8(x3)
            vle32.v v1, (x1)
            add x6, x4, x2
            vle32.v v2, (x6)
            vadd.vv v3, v1, v2
            add x7, x5, x2
            vse32.v v3, (x7)
        )",
                                             res);
        LaunchDesc d(kid, a, a + kN * 4);
        d.arg(b).arg(c);
        rt->launchKernelSync(d);
        out = fresh.device().aggregateUnitStats();
        return fresh.eq().now();
    };

    NdpUnitStats first, second;
    Tick t1 = run_once(first);
    Tick t2 = run_once(second);
    EXPECT_EQ(t1, t2);

    // The ring saw issuable uthreads, and the dominant stall on a
    // dependent-load kernel is memory wait.
    EXPECT_GT(first.ready_occupancy_integral, 0u);
    EXPECT_GT(first.stall_mem_wait, first.stall_fu_busy);

    // Scheduler-internal counters are deterministic, bit for bit.
    EXPECT_EQ(first.instructions, second.instructions);
    EXPECT_EQ(first.ready_occupancy_integral,
              second.ready_occupancy_integral);
    EXPECT_EQ(first.stall_mem_wait, second.stall_mem_wait);
    EXPECT_EQ(first.stall_no_ready, second.stall_no_ready);
    EXPECT_EQ(first.stall_fu_busy, second.stall_fu_busy);
}

TEST_F(IntegrationTest, ReductionWithScratchpadAndAtomics)
{
    constexpr unsigned kN = 8192; // int64 elements
    Addr data = process->allocate(kN * 8);
    Addr result = process->allocate(64);
    std::vector<std::int64_t> v(kN);
    std::int64_t expected = 0;
    for (unsigned i = 0; i < kN; ++i) {
        v[i] = static_cast<std::int64_t>(i) - 1000;
        expected += v[i];
    }
    sys->writeVirtual(*process, data, v.data(), kN * 8);
    sys->writeVirtual<std::int64_t>(*process, result, 0);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    res.scratchpad_bytes = 64;
    std::int64_t kid = runtime->registerKernel(kReduceKernel, res);
    ASSERT_GT(kid, 0);

    std::int64_t iid = runtime->launchKernelSync(
        launchWith(kid, data, data + kN * 8, {result}));
    ASSERT_GT(iid, 0);

    EXPECT_EQ(sys->readVirtual<std::int64_t>(*process, result), expected);

    // Scratchpad traffic happened; global atomics happened (one per unit
    // in the finalizer plus per-uthread local AMOs are scratchpad-side).
    auto stats = sys->device().aggregateUnitStats();
    EXPECT_GT(stats.spad_accesses, 0u);
    EXPECT_EQ(stats.global_atomics, 32u); // one per NDP unit (finalizer)
}

TEST_F(IntegrationTest, AsyncLaunchAndConcurrentKernels)
{
    constexpr unsigned kN = 4096;
    Addr a = process->allocate(kN * 4);
    Addr b = process->allocate(kN * 4);
    std::vector<std::uint32_t> va(kN, 7), dummy(kN, 1);
    sys->writeVirtual(*process, a, va.data(), kN * 4);
    sys->writeVirtual(*process, b, dummy.data(), kN * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kVecAddKernel, res);
    ASSERT_GT(kid, 0);

    // Launch 8 concurrent instances (one stream each) writing to
    // distinct outputs.
    std::vector<Addr> outs;
    std::vector<NdpEvent> events;
    for (int k = 0; k < 8; ++k) {
        Addr c = process->allocate(kN * 4);
        outs.push_back(c);
        events.push_back(runtime->createStream().launch(
            launchWith(kid, a, a + kN * 4, {b, c})));
    }
    sys->run();
    for (auto &ev : events) {
        EXPECT_TRUE(ev.done());
        EXPECT_GT(ev.instanceId(), 0);
    }
    for (Addr c : outs)
        EXPECT_EQ(sys->readVirtual<std::uint32_t>(*process, c), 8u);
}

TEST_F(IntegrationTest, SyncLaunchOverheadIsTwoCxlMemTrips)
{
    // Empty-ish kernel over a tiny pool: end-to-end time should be close
    // to kernel runtime + 2 one-way CXL.mem trips (Fig. 5a), far below
    // the CXL.io alternatives.
    constexpr unsigned kN = 64;
    Addr a = process->allocate(kN * 4);
    Addr b = process->allocate(kN * 4);
    Addr c = process->allocate(kN * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kVecAddKernel, res);

    Tick start = sys->eq().now();
    runtime->launchKernelSync(launchWith(kid, a, a + kN * 4, {b, c}));
    Tick m2func_time = sys->eq().now() - start;
    // Must be well under the ring-buffer floor of ~4 us (Fig. 5).
    EXPECT_LT(m2func_time, 2 * kUs);
}

TEST_F(IntegrationTest, OffloadSchemeLatencyOrdering)
{
    constexpr unsigned kN = 64;
    Addr a = process->allocate(kN * 4);
    Addr b = process->allocate(kN * 4);

    auto run_scheme = [&](OffloadScheme scheme) {
        NdpRuntimeConfig rc;
        rc.scheme = scheme;
        auto rt = sys->createRuntime(*process, rc);
        KernelResources res;
        res.num_int_regs = 8;
        res.num_vector_regs = 4;
        std::int64_t kid = rt->registerKernel(kVecAddKernel, res);
        Addr c = process->allocate(kN * 4);
        Tick start = sys->eq().now();
        std::int64_t iid =
            rt->launchKernelSync(launchWith(kid, a, a + kN * 4, {b, c}));
        EXPECT_GT(iid, 0) << offloadSchemeName(scheme);
        return sys->eq().now() - start;
    };

    Tick t_m2func = run_scheme(OffloadScheme::M2Func);
    Tick t_dr = run_scheme(OffloadScheme::CxlIoDirect);
    Tick t_rb = run_scheme(OffloadScheme::CxlIoRingBuffer);

    // Fig. 5: z+2x < z+3y < z+8y.
    EXPECT_LT(t_m2func, t_dr);
    EXPECT_LT(t_dr, t_rb);
    // Ring buffer pays ~4 us of offload overhead.
    EXPECT_GT(t_rb, 4 * kUs);
}

TEST_F(IntegrationTest, PollAndStatusLifecycle)
{
    constexpr unsigned kN = 32768;
    Addr a = process->allocate(kN * 4);
    Addr b = process->allocate(kN * 4);
    Addr c = process->allocate(kN * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kVecAddKernel, res);

    NdpEvent ev = runtime->createStream().launch(
        launchWith(kid, a, a + kN * 4, {b, c}));
    // Drive a little: the instance should exist and be running or pending.
    for (int i = 0; i < 2000 && !ev.done(); ++i)
        sys->eq().step();
    ASSERT_FALSE(ev.done()) << "kernel finished suspiciously fast";
    std::int64_t done_iid = ev.wait();
    ASSERT_GT(done_iid, 0);
    EXPECT_EQ(ev.instanceId(), done_iid);
    EXPECT_EQ(runtime->pollKernelStatus(done_iid), KernelStatus::Finished);
    EXPECT_EQ(runtime->pollKernelStatus(99999),
              static_cast<KernelStatus>(kNdpErr));
}

TEST_F(IntegrationTest, UnregisterAndErrors)
{
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kVecAddKernel, res);
    ASSERT_GT(kid, 0);
    EXPECT_EQ(runtime->unregisterKernel(kid), 0);
    // Launching an unregistered kernel fails.
    Addr a = process->allocate(4096);
    EXPECT_LT(runtime->launchKernelSync(LaunchDesc(kid, a, a + 4096)), 0);
    // Unregistering twice fails.
    EXPECT_LT(runtime->unregisterKernel(kid), 0);
}

// Remapping a page and shooting its translation down (Table II) must make
// the next kernel read the new frame: the M2func call travels controller
// -> device -> every unit's TLB and translation cache.
TEST_F(IntegrationTest, TlbShootdownPath)
{
    constexpr unsigned kN = 4096;
    Addr a = process->allocate(kN * 4);
    Addr b = process->allocate(kN * 4);
    Addr c = process->allocate(kN * 4);
    Addr spare = process->allocate(kN * 4);
    std::vector<std::uint32_t> va(kN), vb(kN), vspare(kN);
    for (unsigned i = 0; i < kN; ++i) {
        va[i] = i;
        vb[i] = 1000 + i;
        vspare[i] = 7000000 + 3 * i;
    }
    sys->writeVirtual(*process, a, va.data(), kN * 4);
    sys->writeVirtual(*process, b, vb.data(), kN * 4);
    sys->writeVirtual(*process, spare, vspare.data(), kN * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kVecAddKernel, res);
    ASSERT_GT(kid, 0);
    auto run_and_check = [&](const std::vector<std::uint32_t> &expect_b) {
        ASSERT_GT(runtime->launchKernelSync(
                      launchWith(kid, a, a + kN * 4, {b, c})),
                  0);
        std::vector<std::uint32_t> vc(kN);
        sys->readVirtual(*process, c, vc.data(), kN * 4);
        for (unsigned i = 0; i < kN; ++i)
            ASSERT_EQ(vc[i], va[i] + expect_b[i]) << "at index " << i;
    };
    run_and_check(vb); // warms every unit's translations of B's page

    // Point B's page at the spare frame, then shoot the stale entry down.
    PageTable &pt = process->pageTable();
    Addr spare_frame = *pt.translate(spare);
    ASSERT_TRUE(pt.unmap(b));
    pt.map(b, spare_frame);
    ASSERT_EQ(runtime->shootdownTlbEntry(process->asid(), b), 0);
    run_and_check(vspare);
}

/** dst[i] = src[i], one uthread per 32 B of src; args: [0]=dst base. */
const char *kCopyKernel = R"(
    .name copy
    vsetvli x0, x0, e32, m1
    li  x3, %args
    ld  x4, 0(x3)
    vle32.v v1, (x1)
    add x5, x4, x2
    vse32.v v1, (x5)
)";

// A frame the NDP units found absent must not be remembered as absent:
// after the host writes it, the same kernel has to copy the new bytes.
TEST_F(IntegrationTest, HostWriteAfterKernelReadOfUnwrittenBuffer)
{
    constexpr unsigned kN = 1024; // one 4 KiB frame
    Addr src = process->allocate(kN * 4);
    // The copy lands one frame into its buffer, so the source and
    // destination frames of each uthread differ in their low frame-number
    // bits and a small direct-mapped frame cache keeps both.
    Addr dst = process->allocate(2 * kN * 4) + kN * 4;
    std::vector<std::uint32_t> poison(kN, 0xdeadbeefu), fresh(kN);
    for (unsigned i = 0; i < kN; ++i)
        fresh[i] = 5000000 + 7 * i;
    sys->writeVirtual(*process, dst, poison.data(), kN * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kCopyKernel, res);
    ASSERT_GT(kid, 0);
    auto copy_and_check = [&](const std::vector<std::uint32_t> &expect) {
        ASSERT_GT(runtime->launchKernelSync(
                      launchWith(kid, src, src + kN * 4, {dst})),
                  0);
        std::vector<std::uint32_t> out(kN);
        sys->readVirtual(*process, dst, out.data(), kN * 4);
        for (unsigned i = 0; i < kN; ++i)
            ASSERT_EQ(out[i], expect[i]) << "at index " << i;
    };
    copy_and_check(std::vector<std::uint32_t>(kN, 0)); // src never written
    sys->writeVirtual(*process, src, fresh.data(), kN * 4);
    copy_and_check(fresh);
}

// ---------------------------------------------------------------------
// Partitioned parallel engine (sim/partition.hh): the same seed and
// workload must produce bit-identical simulations for every thread
// count. Two inputs: a 4-device vecadd with fault injection on, so the
// per-direction RNG schedules are part of what must not drift, and
// Fig. 12b's 8-device OPT-30B shard, whose all-reduce traffic loads the
// cross-partition paths.
// ---------------------------------------------------------------------
TEST(ParallelEngineTest, SerialAndParallelRunsAreBitExact)
{
    constexpr unsigned kN = 4096;
    constexpr unsigned kDevices = 4;

    struct RunResult
    {
        std::uint64_t checksum = 0;
        Tick final_now = 0;
        Tick lookahead = 0;
        std::vector<std::uint32_t> bytes;
    };

    auto run_once = [&](unsigned threads) {
        SystemConfig cfg;
        cfg.num_devices = kDevices;
        cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        cfg.threads = threads;
        cfg.fault.enabled = true;
        cfg.fault.seed = 0xDE7E12;
        cfg.fault.bit_error_rate = 1e-7;
        cfg.fault.drop_rate = 0.002;
        System sys(cfg);
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);

        KernelResources res;
        res.num_int_regs = 8;
        res.num_vector_regs = 4;
        std::int64_t kid = rt->registerKernel(kVecAddKernel, res);
        EXPECT_GT(kid, 0);

        std::vector<std::uint32_t> va(kN), vb(kN);
        for (unsigned i = 0; i < kN; ++i) {
            va[i] = i * 3;
            vb[i] = 7 + i;
        }

        std::vector<Addr> outs;
        std::vector<NdpEvent> events;
        for (unsigned dev = 0; dev < kDevices; ++dev) {
            Addr a = proc.allocate(kN * 4, Placement::Localized, dev);
            Addr b = proc.allocate(kN * 4, Placement::Localized, dev);
            Addr c = proc.allocate(kN * 4, Placement::Localized, dev);
            sys.writeVirtual(proc, a, va.data(), kN * 4);
            sys.writeVirtual(proc, b, vb.data(), kN * 4);
            outs.push_back(c);
            events.push_back(rt->createStream(dev).launch(
                launchWith(kid, a, a + kN * 4, {b, c})));
        }
        sys.run();

        RunResult r;
        for (auto &ev : events)
            EXPECT_GT(ev.instanceId(), 0);
        r.bytes.resize(kDevices * kN);
        for (unsigned dev = 0; dev < kDevices; ++dev)
            sys.readVirtual(proc, outs[dev], r.bytes.data() + dev * kN,
                            kN * 4);
        r.checksum = sys.engineChecksum();
        r.final_now = sys.eq().now();
        r.lookahead = sys.maxBookingLookahead();
        return r;
    };

    auto run_opt30b = [](unsigned threads) {
        constexpr unsigned kOptDevices = 8;
        SystemConfig cfg;
        cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        cfg.num_devices = kOptDevices;
        cfg.threads = threads;
        System sys(cfg);
        auto &proc = sys.createProcess();
        auto rt = sys.createRuntime(proc);
        workloads::OptConfig oc;
        oc.model = workloads::OptModel::opt30b();
        oc.sim_hidden = 256;
        oc.sim_layers = 1;
        oc.devices = kOptDevices;
        workloads::OptWorkload w(sys, proc, oc);
        w.setup();
        EXPECT_TRUE(w.runNdp(*rt).verified);
        RunResult r;
        r.checksum = sys.engineChecksum();
        r.final_now = sys.eq().now();
        r.lookahead = sys.maxBookingLookahead();
        return r;
    };

    auto expect_bit_exact = [](auto run) {
        RunResult serial = run(1);
        for (unsigned threads : {2u, 4u}) {
            RunResult parallel = run(threads);
            EXPECT_EQ(serial.checksum, parallel.checksum)
                << "engine checksum diverged at threads=" << threads;
            EXPECT_EQ(serial.final_now, parallel.final_now)
                << "final sim time diverged at threads=" << threads;
            EXPECT_EQ(serial.lookahead, parallel.lookahead)
                << "booking lookahead diverged at threads=" << threads;
            EXPECT_EQ(serial.bytes, parallel.bytes)
                << "result bytes diverged at threads=" << threads;
        }
        return serial;
    };

    RunResult vecadd = expect_bit_exact(run_once);
    // The kernels actually computed something.
    for (unsigned i = 0; i < kN; ++i)
        ASSERT_EQ(vecadd.bytes[i], i * 3 + 7 + i) << "at index " << i;
    expect_bit_exact(run_opt30b);
}

// Cross-partition mailboxes are per-direction FIFO: messages posted on
// the same (from, to) edge execute in post order whenever their arrival
// ticks tie, and never before an earlier-tick message. The M2func launch
// protocol depends on this (the deferred return read must not overtake
// the launch write it follows).
TEST(ParallelEngineTest, MailboxPreservesPerDirectionFifoOrder)
{
    EventQueue host;
    EventQueue dev;
    SimDomain domain(host, {&dev}, /*lookahead=*/100, /*threads=*/2);
    host.setDriver(&domain);

    // Post pairs (write at t, read at t) the way the launch path does:
    // same edge, same arrival tick; FIFO requires write-before-read.
    constexpr int kPairs = 64;
    std::vector<int> order;
    for (int i = 0; i < kPairs; ++i) {
        Tick at = 1000 + static_cast<Tick>(i / 3) * 50; // ties across i
        domain.post(SimDomain::kHost, SimDomain::deviceId(0), at,
                    [&order, i] { order.push_back(2 * i); });     // write
        domain.post(SimDomain::kHost, SimDomain::deviceId(0), at,
                    [&order, i] { order.push_back(2 * i + 1); }); // read
    }
    host.run();
    host.setDriver(nullptr);

    ASSERT_EQ(order.size(), 2u * kPairs);
    // Arrival ticks are non-decreasing in post order here, so FIFO means
    // the messages execute exactly in post order.
    for (int i = 0; i < 2 * kPairs; ++i)
        ASSERT_EQ(order[i], i) << "mailbox reordered message " << i;
}

// The launch protocol survives fault-injection replays: a replayed
// launch write occupies the link direction, so the deferred M2func
// return read queues behind it instead of overtaking — every launch
// must still complete with a valid instance.
TEST(ParallelEngineTest, M2FuncReturnNeverOvertakesLaunchWrite)
{
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    cfg.threads = 2;
    cfg.fault.enabled = true;
    cfg.fault.seed = 0xF1F0;
    cfg.fault.drop_rate = 0.05; // aggressive: ~1 in 20 messages replayed
    System sys(cfg);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kVecAddKernel, res);
    ASSERT_GT(kid, 0);

    constexpr unsigned kN = 64;
    Addr a = proc.allocate(kN * 4);
    Addr b = proc.allocate(kN * 4);
    std::vector<NdpEvent> events;
    for (int k = 0; k < 32; ++k) {
        Addr c = proc.allocate(kN * 4);
        events.push_back(rt->createStream().launch(
            launchWith(kid, a, a + kN * 4, {b, c})));
    }
    sys.run();
    for (auto &ev : events) {
        ASSERT_TRUE(ev.done());
        EXPECT_GT(ev.instanceId(), 0)
            << "a launch lost its M2func return under replay faults";
    }
}

TEST_F(IntegrationTest, DramBandwidthUtilizationHigh)
{
    // A pure streaming kernel should drive DRAM near peak (Section IV-C
    // reports ~90% utilization for OLAP Evaluate).
    constexpr unsigned kN = 262144; // 1 MiB of int32
    Addr a = process->allocate(kN * 4);
    Addr b = process->allocate(kN * 4);
    Addr c = process->allocate(kN * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = runtime->registerKernel(kVecAddKernel, res);

    Tick start = sys->eq().now();
    runtime->launchKernelSync(launchWith(kid, a, a + kN * 4, {b, c}));
    Tick elapsed = sys->eq().now() - start;

    double bytes = 3.0 * kN * 4; // A + B reads, C writes
    double achieved = bytes / ticksToSeconds(elapsed);
    double peak = sys->device().dram().peakBandwidth();
    // VecAdd is the worst case for FGMT latency hiding (two *dependent*
    // loads per uthread); the structural ceiling with 64 single-
    // outstanding-load uthreads per unit is ~0.4-0.5 of peak. Single-load
    // streaming kernels (e.g. OLAP Evaluate) reach substantially higher.
    EXPECT_GT(achieved / peak, 0.30)
        << "streaming utilization too low: " << achieved / 1e9 << " GB/s";
}

// -------------------------------------------------------------------------
// Controller: instance status lifecycle and the M2func launch wire format,
// driven at the controller's own entry points.
// -------------------------------------------------------------------------

/** Copies the first 32 B of the argument window to the pool base. */
const char *kArgDumpKernel = R"(
    .name argdump
    li  x3, %args
    ld  x4, 0(x3)
    sd  x4, 0(x1)
    ld  x4, 8(x3)
    sd  x4, 8(x1)
    ld  x4, 16(x3)
    sd  x4, 16(x1)
    ld  x4, 24(x3)
    sd  x4, 24(x1)
)";

class ControllerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SystemConfig cfg;
        cfg.device.controller.max_concurrent_instances = 2;
        sys = std::make_unique<System>(cfg);
        proc = &sys->createProcess();
        KernelResources res;
        res.num_int_regs = 8;
        touch = ctrl().registerKernel(proc->asid(),
                                      ".name touch\n ld x4, 0(x1)\n", res);
        argdump = ctrl().registerKernel(proc->asid(), kArgDumpKernel, res);
        wild = ctrl().registerKernel(
            proc->asid(), ".name wildload\n ld x4, 0(x0)\n", res);
        ASSERT_GT(touch, 0);
        ASSERT_GT(argdump, 0);
        ASSERT_GT(wild, 0);
    }

    NdpController &ctrl() { return sys->device().controller(); }
    /** The device partition's queue: stepping it advances the controller
     *  one event at a time (the host queue would run it in windows). */
    EventQueue &dev_eq() { return sys->deviceQueue(); }

    /** Byte offset of M2func launch slot @p k in the region. */
    static std::uint64_t
    slotOffset(unsigned k)
    {
        return (kM2FuncLaunchSlotBase + k * kM2FuncLaunchSlotStride) *
               kM2FuncStride;
    }

    /** The value a return-value read at @p offset delivers (or -999
     *  while the read is still deferred). */
    std::int64_t *
    readReturn(std::uint64_t offset)
    {
        auto *out = &reads_.emplace_back(-999);
        ctrl().handleRead(proc->asid(), offset,
                          [out](std::int64_t v) { *out = v; });
        return out;
    }

    /** The PollKernelStatus entry point's byte offset. */
    static constexpr std::uint64_t kPollOffset =
        static_cast<std::uint64_t>(M2Func::PollKernelStatus) * kM2FuncStride;

    /** An M2func poll write naming instance @p id. */
    void
    writePoll(std::int64_t id)
    {
        M2FuncPayload p;
        std::memcpy(p.bytes.data(), &id, sizeof(id));
        p.size = sizeof(id);
        ctrl().handleWrite(proc->asid(), kPollOffset, p);
    }

    std::array<std::uint8_t, 32>
    dumped(Addr pool)
    {
        std::array<std::uint8_t, 32> out{};
        sys->readVirtual(*proc, pool, out.data(), out.size());
        return out;
    }

    std::unique_ptr<System> sys;
    ProcessAddressSpace *proc = nullptr;
    std::int64_t touch = 0, argdump = 0, wild = 0;
    std::deque<std::int64_t> reads_;
};

/** Full-format launch payload, laid out by hand from the wire format:
 *  [0] flags, [1] arg size, [2] weight, i64 kernel @8, base @16,
 *  bound @24, args @32. */
M2FuncPayload
fullLaunch(std::uint8_t flags, std::uint8_t argsize, std::uint8_t weight,
           std::int64_t kernel, Addr base, Addr bound,
           const std::vector<std::uint8_t> &args)
{
    M2FuncPayload p;
    p.bytes[0] = flags;
    p.bytes[1] = argsize;
    p.bytes[2] = weight;
    std::memcpy(&p.bytes[8], &kernel, 8);
    std::memcpy(&p.bytes[16], &base, 8);
    std::memcpy(&p.bytes[24], &bound, 8);
    if (!args.empty())
        std::memcpy(&p.bytes[32], args.data(), args.size());
    p.size = static_cast<std::uint8_t>(32 + args.size());
    return p;
}

/** One compact launch at byte @p at: [0] flags, [1] arg size,
 *  [2] weight, u32 kernel @4, base @8, bound @16, args @24. */
void
putCompact(M2FuncPayload &p, unsigned at, std::uint8_t argsize,
           std::uint32_t kernel, Addr base, Addr bound,
           const std::vector<std::uint8_t> &args)
{
    p.bytes[at] = kLaunchFlagSync | kLaunchFlagCompact;
    p.bytes[at + 1] = argsize;
    std::memcpy(&p.bytes[at + 4], &kernel, 4);
    std::memcpy(&p.bytes[at + 8], &base, 8);
    std::memcpy(&p.bytes[at + 16], &bound, 8);
    std::memcpy(&p.bytes[at + 24], args.data(), args.size());
    p.size = static_cast<std::uint8_t>(at + 24 + args.size());
}

std::vector<std::uint8_t>
pattern(unsigned n, std::uint8_t first)
{
    std::vector<std::uint8_t> v(n);
    for (unsigned i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(first + i);
    return v;
}

TEST_F(ControllerTest, StatusReportsPendingRunningFinishedFaultedAndErrors)
{
    // Before any poll write, an M2func poll read reports an error.
    EXPECT_EQ(*readReturn(kPollOffset), kNdpErr);

    // A backlog of long launches behind a 2-instance limit: the first two
    // run, the rest wait in the launch queue.
    // The first is 16x shorter than the rest, so it finishes alone.
    const Addr pool = proc->allocate(1u << 20);
    std::vector<std::int64_t> ids;
    for (int i = 0; i < 5; ++i) {
        const Addr bound = pool + (i == 0 ? 1u << 16 : 1u << 20);
        ids.push_back(ctrl().launch(proc->asid(), touch, pool, bound,
                                    nullptr, 0));
        ASSERT_GT(ids.back(), 0);
    }
    EXPECT_EQ(ctrl().activeInstances(), 2u);
    EXPECT_EQ(ctrl().queuedLaunches(), 3u);
    EXPECT_EQ(ctrl().status(ids[0]), KernelStatus::Running);
    EXPECT_EQ(ctrl().status(ids[1]), KernelStatus::Running);
    for (int i = 2; i < 5; ++i)
        EXPECT_EQ(ctrl().status(ids[i]), KernelStatus::Pending) << i;
    // The M2func poll reports the status of the id it last named.
    writePoll(ids[0]);
    EXPECT_EQ(*readReturn(kPollOffset),
              static_cast<std::int64_t>(KernelStatus::Running));

    // Spawn progress is visible for running ids only.
    while (ctrl().instanceSpawned(ids[0]) == 0 && dev_eq().step()) {
    }
    EXPECT_GT(ctrl().instanceSpawned(ids[0]), 0u);
    EXPECT_EQ(ctrl().instanceSpawned(ids[2]), 0u);

    // The first completion admits the head of the queue.
    while (ctrl().stats().instances_completed == 0 && dev_eq().step()) {
    }
    ASSERT_EQ(ctrl().stats().instances_completed, 1u);
    EXPECT_EQ(ctrl().status(ids[0]), KernelStatus::Finished);
    // A spinning host sees the progress without rewriting the poll.
    EXPECT_EQ(*readReturn(kPollOffset),
              static_cast<std::int64_t>(KernelStatus::Finished));
    EXPECT_EQ(ctrl().status(ids[1]), KernelStatus::Running);
    EXPECT_EQ(ctrl().status(ids[2]), KernelStatus::Running);
    EXPECT_EQ(ctrl().status(ids[3]), KernelStatus::Pending);
    EXPECT_EQ(ctrl().status(ids[4]), KernelStatus::Pending);
    EXPECT_EQ(ctrl().instanceSpawned(ids[0]), 0u);

    sys->eq().run();
    for (std::int64_t id : ids)
        EXPECT_EQ(ctrl().status(id), KernelStatus::Finished) << id;

    // A trapping kernel completes Faulted; its neighbours stay Finished.
    std::int64_t bad = ctrl().launch(proc->asid(), wild, pool,
                                     pool + 32, nullptr, 0);
    ASSERT_GT(bad, 0);
    sys->eq().run();
    EXPECT_EQ(ctrl().status(bad), KernelStatus::Faulted);
    EXPECT_EQ(ctrl().status(ids[4]), KernelStatus::Finished);

    // Ids never issued are errors.
    const auto err = static_cast<KernelStatus>(kNdpErr);
    EXPECT_EQ(ctrl().status(0), err);
    EXPECT_EQ(ctrl().status(-1), err);
    EXPECT_EQ(ctrl().status(bad + 1), err);
    EXPECT_EQ(ctrl().status(1000000), err);
}

TEST_F(ControllerTest, FullLaunchArgsClampToPayloadAndArgSize)
{
    Addr p1 = proc->allocate(4096);
    Addr p2 = proc->allocate(4096);
    // Arg size 32, but the payload carries only 16 B: min(argsize,
    // size - 32) bytes reach the instance, the rest of its window is 0.
    ctrl().handleWrite(proc->asid(), slotOffset(0),
                       fullLaunch(kLaunchFlagSync, 32, 1, argdump, p1,
                                  p1 + 32, pattern(16, 0x10)));
    // Arg size 8 with 24 B in the payload: only 8 bytes count.
    ctrl().handleWrite(proc->asid(), slotOffset(1),
                       fullLaunch(kLaunchFlagSync, 8, 1, argdump, p2,
                                  p2 + 32, pattern(24, 0x40)));
    std::int64_t *r1 = readReturn(slotOffset(0));
    std::int64_t *r2 = readReturn(slotOffset(1));
    EXPECT_EQ(*r1, -999) << "a synchronous launch returned before it ran";
    sys->eq().run();
    EXPECT_GT(*r1, 0);
    EXPECT_GT(*r2, *r1);

    auto d1 = dumped(p1);
    auto d2 = dumped(p2);
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(d1[i], i < 16 ? 0x10 + i : 0) << "full/16 B byte " << i;
        EXPECT_EQ(d2[i], i < 8 ? 0x40 + i : 0) << "full/8 B byte " << i;
    }
}

TEST_F(ControllerTest, CompactStoreCarriesTwoLaunchesWithEightByteArgs)
{
    Addr p1 = proc->allocate(4096);
    Addr p2 = proc->allocate(4096);
    // Both halves claim 16 B of args; a compact launch holds 8, so the
    // first half must not read the second half's header as arguments.
    M2FuncPayload p;
    putCompact(p, 0, 16, static_cast<std::uint32_t>(argdump), p1, p1 + 32,
               pattern(8, 0x20));
    putCompact(p, 32, 16, static_cast<std::uint32_t>(argdump), p2, p2 + 32,
               pattern(8, 0x60));
    ASSERT_EQ(p.size, 64u);
    const auto before = ctrl().stats();
    ctrl().handleWrite(proc->asid(), slotOffset(2), p);
    EXPECT_EQ(ctrl().stats().launches, before.launches + 2);
    EXPECT_EQ(ctrl().stats().launches_batched, before.launches_batched + 2);
    std::int64_t *r1 = readReturn(slotOffset(2));
    std::int64_t *r2 = readReturn(slotOffset(2) + kM2FuncStride);
    sys->eq().run();
    EXPECT_GT(*r1, 0);
    EXPECT_EQ(*r2, *r1 + 1);

    auto d1 = dumped(p1);
    auto d2 = dumped(p2);
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(d1[i], i < 8 ? 0x20 + i : 0) << "first half byte " << i;
        EXPECT_EQ(d2[i], i < 8 ? 0x60 + i : 0) << "second half byte " << i;
    }
}

TEST_F(ControllerTest, ShortCompactStoreCarriesOneLaunch)
{
    Addr p1 = proc->allocate(4096);
    // 28 B: one compact launch whose 8 B of args are cut to the 4 B the
    // store carries; nothing is launched for the second return offset.
    M2FuncPayload p;
    putCompact(p, 0, 8, static_cast<std::uint32_t>(argdump), p1, p1 + 32,
               pattern(4, 0x30));
    ASSERT_EQ(p.size, 28u);
    const auto before = ctrl().stats();
    ctrl().handleWrite(proc->asid(), slotOffset(3), p);
    EXPECT_EQ(ctrl().stats().launches, before.launches + 1);
    EXPECT_EQ(ctrl().stats().launches_batched, before.launches_batched + 1);
    std::int64_t *r1 = readReturn(slotOffset(3));
    std::int64_t *r2 = readReturn(slotOffset(3) + kM2FuncStride);
    sys->eq().run();
    EXPECT_GT(*r1, 0);
    EXPECT_EQ(*r2, kNdpErr) << "a 28 B compact store launched twice";

    auto d1 = dumped(p1);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(d1[i], i < 4 ? 0x30 + i : 0) << "byte " << i;
}

TEST_F(ControllerTest, CompactStoreAtBaseLaunchOffsetIsRejected)
{
    // The base LaunchKernel offset (64) owns one return offset; the next
    // one (96) is PollKernelStatus. A batched store there must not launch
    // its second half through the poll slot.
    constexpr std::uint64_t kLaunchOffset =
        static_cast<std::uint64_t>(M2Func::LaunchKernel) * kM2FuncStride;
    Addr p1 = proc->allocate(4096);
    Addr p2 = proc->allocate(4096);
    M2FuncPayload p;
    putCompact(p, 0, 8, static_cast<std::uint32_t>(argdump), p1, p1 + 32,
               pattern(8, 0x20));
    putCompact(p, 32, 8, static_cast<std::uint32_t>(argdump), p2, p2 + 32,
               pattern(8, 0x60));
    const auto before = ctrl().stats();
    ctrl().handleWrite(proc->asid(), kLaunchOffset, p);
    EXPECT_EQ(ctrl().stats().launches_rejected,
              before.launches_rejected + 1);
    EXPECT_EQ(*readReturn(kLaunchOffset),
              static_cast<std::int64_t>(NdpError::BadLaunchLayout));
    // The poll slot still answers at once with a status (nothing was
    // polled yet), never with the second launch's instance id.
    std::int64_t *poll = readReturn(kPollOffset);
    EXPECT_EQ(*poll, kNdpErr) << "the poll read was held back";
    sys->eq().run();
    EXPECT_EQ(*poll, kNdpErr);
    EXPECT_EQ(ctrl().stats().launches, before.launches);
}

TEST_F(ControllerTest, OneUthreadLaunchesWakeOnlyUnitZero)
{
    // A 32 B pool is one Body uthread, which only unit 0 can spawn (unit
    // u gets offsets u, u+N, ...). Waking all N units would cost each of
    // units 1..N-1 at least one empty pull per launch; only unit 0's own
    // sub-cores may find nothing.
    const unsigned units = sys->device().config().num_units;
    ASSERT_GT(units, 1u);
    const Addr pool = proc->allocate(4096);
    constexpr unsigned kLaunches = 16;
    const auto before = ctrl().stats();
    for (unsigned i = 0; i < kLaunches; ++i) {
        ASSERT_GT(ctrl().launch(proc->asid(), touch, pool, pool + 32,
                                nullptr, 0),
                  0);
        sys->eq().run();
    }
    EXPECT_EQ(ctrl().stats().instances_completed,
              before.instances_completed + kLaunches);
    EXPECT_LT(ctrl().stats().pulls_empty - before.pulls_empty,
              std::uint64_t{kLaunches} * (units - 1));
}

TEST_F(ControllerTest, WireWeightZeroReadsAsOne)
{
    // Two equally wide instances share the pullWork cursor by weight.
    // Weight byte 0 must act as 1 (an even split); a 3:1 control shows
    // the weight byte is honoured at all.
    auto share = [&](std::uint8_t wa, std::uint8_t wb) {
        const Addr pool = proc->allocate(1u << 20);
        const Addr bound = pool + (1u << 20);
        std::uint64_t off_a = slotOffset(4), off_b = slotOffset(5);
        ctrl().handleWrite(proc->asid(), off_a,
                           fullLaunch(0, 0, wa, touch, pool, bound, {}));
        ctrl().handleWrite(proc->asid(), off_b,
                           fullLaunch(0, 0, wb, touch, pool, bound, {}));
        std::int64_t a = *readReturn(off_a);
        std::int64_t b = *readReturn(off_b);
        EXPECT_GT(a, 0);
        EXPECT_GT(b, 0);
        while (ctrl().instanceSpawned(a) + ctrl().instanceSpawned(b) <
                   4096 &&
               dev_eq().step()) {
        }
        double s = static_cast<double>(ctrl().instanceSpawned(a)) /
                   static_cast<double>(ctrl().instanceSpawned(b));
        sys->eq().run();
        return s;
    };
    double even = share(0, 1);
    EXPECT_GT(even, 0.8);
    EXPECT_LT(even, 1.25);
    EXPECT_GT(share(3, 1), 2.0);
}

} // namespace
} // namespace m2ndp
