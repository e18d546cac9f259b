/**
 * @file
 * Stream-based offload API semantics (host/stream.hh, host/runtime.hh):
 *
 *  - launches on one stream execute in order (the next launch is held
 *    until the previous kernel instance completed),
 *  - launches on different streams run concurrently,
 *  - NdpEvent poll/wait/completion-hook behaviour,
 *  - multi-process ASID isolation under concurrent streams,
 *  - multi-device routing from a single runtime,
 *  - and — via the counting operator new in this binary — that a warm
 *    launch burst performs ZERO heap allocations on the host path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/counting_new.hh"
#include "system/system.hh"

namespace m2ndp {
namespace {

/** Fig. 4's vecadd: one uthread per 32 B of the pool region. */
const char *kVecAdd = R"(
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
)";

struct Buffers
{
    Addr a = 0, b = 0, c = 0;
    unsigned elems = 0;
};

Buffers
makeBuffers(System &sys, ProcessAddressSpace &proc, unsigned elems,
            float seed = 1.0f)
{
    Buffers buf;
    buf.elems = elems;
    buf.a = proc.allocate(elems * 4);
    buf.b = proc.allocate(elems * 4);
    buf.c = proc.allocate(elems * 4);
    std::vector<float> va(elems), vb(elems);
    for (unsigned i = 0; i < elems; ++i) {
        va[i] = seed * static_cast<float>(i);
        vb[i] = seed * 2.0f * static_cast<float>(i);
    }
    sys.writeVirtual(proc, buf.a, va.data(), elems * 4);
    sys.writeVirtual(proc, buf.b, vb.data(), elems * 4);
    return buf;
}

bool
verifyVecAdd(System &sys, const ProcessAddressSpace &proc,
             const Buffers &buf, float seed = 1.0f)
{
    std::vector<float> vc(buf.elems);
    sys.readVirtual(proc, buf.c, vc.data(), buf.elems * 4);
    for (unsigned i = 0; i < buf.elems; ++i) {
        if (vc[i] != seed * 3.0f * static_cast<float>(i))
            return false;
    }
    return true;
}

LaunchDesc
vecAddLaunch(std::int64_t kid, const Buffers &buf)
{
    return LaunchDesc(kid, buf.a, buf.a + buf.elems * 4)
        .arg(buf.b)
        .arg(buf.c);
}

class StreamApiTest : public ::testing::Test
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
        KernelResources res;
        res.num_int_regs = 8;
        res.num_vector_regs = 4;
        kid = rt->registerKernel(kVecAdd, res);
        ASSERT_GT(kid, 0);
    }

    std::unique_ptr<System> sys;
    ProcessAddressSpace *proc = nullptr;
    std::unique_ptr<NdpRuntime> rt;
    std::int64_t kid = 0;
};

TEST_F(StreamApiTest, InOrderWithinStream)
{
    // A long kernel queued ahead of a short one on the SAME stream: the
    // short kernel must not start (let alone finish) until the long one
    // completed — completion order equals submission order.
    Buffers big = makeBuffers(*sys, *proc, 1u << 16);
    Buffers small = makeBuffers(*sys, *proc, 64);
    NdpStream &stream = rt->createStream();

    NdpEvent ev_big = stream.launch(vecAddLaunch(kid, big));
    NdpEvent ev_small = stream.launch(vecAddLaunch(kid, small));
    EXPECT_EQ(stream.pending(), 2u);

    // The queued launch is held back: at no point are both instances
    // active on the device.
    unsigned max_active = 0;
    while (!ev_small.done() && sys->eq().step()) {
        max_active =
            std::max(max_active, sys->device().controller().activeInstances());
    }
    EXPECT_EQ(max_active, 1u) << "in-order stream overlapped its launches";
    ASSERT_TRUE(ev_big.done()) << "in-order stream completed out of order";
    EXPECT_GT(ev_big.instanceId(), 0);
    EXPECT_GT(ev_small.instanceId(), ev_big.instanceId());
    EXPECT_GT(ev_small.completedAt(), ev_big.completedAt());
    EXPECT_TRUE(stream.idle());
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, big));
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, small));
}

TEST_F(StreamApiTest, CrossStreamConcurrency)
{
    // The same long+short pair on DIFFERENT streams: both instances are
    // active on the device at once (the device interleaves their uthreads,
    // Section III-C), which an in-order stream never allows.
    Buffers big = makeBuffers(*sys, *proc, 1u << 16);
    Buffers small = makeBuffers(*sys, *proc, 64);

    NdpEvent ev_big = rt->createStream().launch(vecAddLaunch(kid, big));
    NdpEvent ev_small = rt->createStream().launch(vecAddLaunch(kid, small));

    unsigned max_active = 0;
    while (!(ev_big.done() && ev_small.done()) && sys->eq().step()) {
        max_active =
            std::max(max_active, sys->device().controller().activeInstances());
    }
    EXPECT_EQ(max_active, 2u) << "cross-stream launches did not overlap";
    EXPECT_GT(ev_big.instanceId(), 0);
    EXPECT_GT(ev_small.instanceId(), 0);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, big));
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, small));
}

TEST_F(StreamApiTest, WideKernelDoesNotStarveSmallStream)
{
    // Fairness across concurrent instances: a wide kernel with a near-
    // endless uthread supply must not starve a tiny kernel launched on a
    // second stream. pullWork rotates a round-robin cursor over active
    // instances, so the tiny kernel's handful of uthreads spawn promptly
    // and it finishes while the wide kernel is still running. (Before the
    // cursor, pullWork served instances in activation order, and the tiny
    // kernel's spawn waited until the wide kernel drained its work queue.)
    Buffers wide = makeBuffers(*sys, *proc, 1u << 18);
    Buffers tiny = makeBuffers(*sys, *proc, 64);

    NdpEvent ev_wide = rt->createStream().launch(vecAddLaunch(kid, wide));
    NdpEvent ev_tiny = rt->createStream().launch(vecAddLaunch(kid, tiny));

    while (!ev_tiny.done() && sys->eq().step()) {
    }
    ASSERT_TRUE(ev_tiny.done());
    EXPECT_FALSE(ev_wide.done())
        << "tiny kernel should finish long before the 4096x wider one";

    ASSERT_GT(ev_wide.wait(), 0);
    EXPECT_GT(ev_wide.completedAt(), 4 * ev_tiny.completedAt())
        << "wide kernel finishing this close to the tiny one means the "
           "tiny kernel was starved of uthread slots";
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, wide));
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, tiny));
}

TEST_F(StreamApiTest, EventPollWaitAndHook)
{
    Buffers buf = makeBuffers(*sys, *proc, 1u << 14);
    NdpStream &stream = rt->createStream();
    NdpEvent ev = stream.launch(vecAddLaunch(kid, buf));

    EXPECT_TRUE(ev.valid());
    EXPECT_FALSE(ev.done()) << "launch completed before any simulation ran";

    std::int64_t hook_iid = 0;
    Tick hook_tick = 0;
    ev.onComplete([&](std::int64_t iid, Tick t) {
        hook_iid = iid;
        hook_tick = t;
    });

    std::int64_t iid = ev.wait();
    ASSERT_GT(iid, 0);
    EXPECT_TRUE(ev.done());
    EXPECT_EQ(ev.instanceId(), iid);
    EXPECT_EQ(hook_iid, iid);
    EXPECT_EQ(hook_tick, ev.completedAt());
    EXPECT_GT(ev.completedAt(), 0u);
    EXPECT_EQ(rt->pollKernelStatus(iid), KernelStatus::Finished);
}

TEST_F(StreamApiTest, EmptyPoolLaunchCompletes)
{
    // An empty pool region spawns no uthreads, so the instance completes
    // inside the controller's launch() — before the synchronous M2func
    // launch has returned its id.
    Buffers buf = makeBuffers(*sys, *proc, 64);
    NdpStream &stream = rt->createStream();
    NdpEvent ev =
        stream.launch(LaunchDesc(kid, buf.a, buf.a).arg(buf.b).arg(buf.c));
    std::int64_t iid = ev.wait();
    ASSERT_GT(iid, 0);
    EXPECT_FALSE(ev.failed());
    EXPECT_EQ(rt->pollKernelStatus(iid), KernelStatus::Finished);
    // The stream stays usable afterwards.
    EXPECT_GT(stream.launch(vecAddLaunch(kid, buf)).wait(), 0);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
}

TEST_F(StreamApiTest, RejectsUnknownKernelAtSubmit)
{
    Buffers buf = makeBuffers(*sys, *proc, 64);
    NdpStream &stream = rt->createStream();
    NdpEvent ev = stream.launch(vecAddLaunch(kid + 7, buf));
    EXPECT_TRUE(ev.done());
    EXPECT_LT(ev.instanceId(), 0);
    EXPECT_TRUE(stream.idle());
    // The stream stays usable after a rejected submit.
    EXPECT_GT(stream.launch(vecAddLaunch(kid, buf)).wait(), 0);
}

TEST_F(StreamApiTest, MultiProcessAsidIsolationUnderConcurrentStreams)
{
    // A second process with its own runtime, M2func region and ASID.
    auto &proc2 = sys->createProcess();
    auto rt2 = sys->createRuntime(proc2);
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid2 = rt2->registerKernel(kVecAdd, res);
    ASSERT_GT(kid2, 0);

    Buffers buf1 = makeBuffers(*sys, *proc, 1u << 13, 1.0f);
    Buffers buf2 = makeBuffers(*sys, proc2, 1u << 13, 0.5f);

    // Interleave launches from both processes across two streams each.
    std::vector<NdpEvent> events;
    for (int round = 0; round < 2; ++round) {
        events.push_back(
            rt->createStream().launch(vecAddLaunch(kid, buf1)));
        events.push_back(
            rt2->createStream().launch(vecAddLaunch(kid2, buf2)));
    }
    for (auto &ev : events)
        EXPECT_GT(ev.wait(), 0);

    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf1, 1.0f));
    EXPECT_TRUE(verifyVecAdd(*sys, proc2, buf2, 0.5f));

    // Kernel handles do not leak across runtimes: process 2 never
    // registered a second kernel, so process 1's handle space does not
    // validate there (and the device-side ASID check backs this up).
    std::int64_t foreign = kid2 + 1;
    NdpEvent bad = rt2->createStream().launch(
        LaunchDesc(foreign, buf2.a, buf2.a + 64));
    EXPECT_TRUE(bad.done());
    EXPECT_LT(bad.instanceId(), 0);
}

TEST_F(StreamApiTest, MultiDeviceStreamRouting)
{
    SystemConfig cfg;
    cfg.num_devices = 2;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    System msys(cfg);
    auto &mproc = msys.createProcess();
    auto mrt = msys.createRuntime(mproc);
    ASSERT_EQ(mrt->numDevices(), 2u);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t mkid = mrt->registerKernel(kVecAdd, res);
    ASSERT_GT(mkid, 0);

    // One buffer set homed on each device; one stream per device.
    std::vector<Buffers> bufs;
    std::vector<NdpEvent> events;
    for (unsigned d = 0; d < 2; ++d) {
        Buffers buf;
        buf.elems = 1u << 12;
        buf.a = mproc.allocate(buf.elems * 4, Placement::Localized, d);
        buf.b = mproc.allocate(buf.elems * 4, Placement::Localized, d);
        buf.c = mproc.allocate(buf.elems * 4, Placement::Localized, d);
        std::vector<float> va(buf.elems), vb(buf.elems);
        for (unsigned i = 0; i < buf.elems; ++i) {
            va[i] = 1.0f * static_cast<float>(i);
            vb[i] = 2.0f * static_cast<float>(i);
        }
        msys.writeVirtual(mproc, buf.a, va.data(), buf.elems * 4);
        msys.writeVirtual(mproc, buf.b, vb.data(), buf.elems * 4);
        bufs.push_back(buf);
        NdpStream &stream = mrt->createStream(d);
        EXPECT_EQ(stream.device(), d);
        events.push_back(stream.launch(vecAddLaunch(mkid, buf)));
    }
    for (auto &ev : events)
        EXPECT_GT(ev.wait(), 0);
    for (unsigned d = 0; d < 2; ++d) {
        EXPECT_TRUE(verifyVecAdd(msys, mproc, bufs[d]));
        // The kernel ran on the device owning the pool region.
        EXPECT_GT(msys.device(d).aggregateUnitStats().uthreads_completed,
                  0u);
    }
}

TEST_F(StreamApiTest, WarmLaunchBurstIsAllocationFreeOnHostPath)
{
    // The synchronous part of NdpStream::launch — record setup, M2func
    // slot assignment, payload pack, host-port write+read issue, event
    // scheduling — must not touch the heap once pools are warm. (Device-
    // side per-launch bookkeeping runs later, inside the simulation, and
    // is covered by tests/test_alloc.cc.)
    constexpr unsigned kStreams = 4;
    constexpr unsigned kPerStream = 8;
    Buffers buf = makeBuffers(*sys, *proc, 256);

    std::vector<NdpStream *> streams;
    for (unsigned s = 0; s < kStreams; ++s)
        streams.push_back(&rt->createStream());

    std::vector<NdpEvent> events;
    events.reserve(kStreams * kPerStream);

    auto burst = [&](bool &all_ok) {
        events.clear();
        for (unsigned i = 0; i < kStreams * kPerStream; ++i) {
            events.push_back(
                streams[i % kStreams]->launch(vecAddLaunch(kid, buf)));
        }
        rt->synchronize();
        all_ok = true;
        for (auto &ev : events)
            all_ok = all_ok && ev.done() && ev.instanceId() > 0;
    };

    // Warm every pool: launch records, host-access records, event slabs,
    // M2func slot tables, device-side queues.
    bool ok = false;
    burst(ok);
    ASSERT_TRUE(ok);
    burst(ok);
    ASSERT_TRUE(ok);

    // Measured burst: the launch calls themselves must allocate nothing.
    events.clear();
    std::uint64_t before = allocationCount();
    for (unsigned i = 0; i < kStreams * kPerStream; ++i) {
        events.push_back(
            streams[i % kStreams]->launch(vecAddLaunch(kid, buf)));
    }
    std::uint64_t after = allocationCount();
    EXPECT_EQ(after - before, 0u)
        << "warm stream launches touched the heap on the host path";

    rt->synchronize();
    for (auto &ev : events) {
        EXPECT_TRUE(ev.done());
        EXPECT_GT(ev.instanceId(), 0);
    }
}

TEST(LaunchThroughput, WarmSixteenStreamBurstSimTicksGolden)
{
    // Sustained M2func launch rate (Fig. 11a's M2func curve): 256
    // launches of a near-empty kernel over one 32 B mapping, round-robin
    // on 16 in-order streams, so the offload path alone sets the time.
    // The burst is measured warm, after a full-size burst filled the
    // launch-record, host-access and event pools.
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    System sys(cfg);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    KernelResources res;
    res.num_int_regs = 4;
    std::int64_t kid = rt->registerKernel("nop\n", res);
    ASSERT_GT(kid, 0);
    Addr pool = proc.allocate(4096);

    constexpr unsigned kStreams = 16;
    constexpr unsigned kLaunches = 256;
    std::vector<NdpStream *> streams;
    for (unsigned s = 0; s < kStreams; ++s)
        streams.push_back(&rt->createStream());
    auto submit = [&] {
        for (unsigned i = 0; i < kLaunches; ++i)
            streams[i % kStreams]->launch(LaunchDesc(kid, pool, pool + 32));
    };
    submit();
    rt->synchronize();

    Tick t0 = sys.eq().now();
    submit();
    rt->synchronize();
    // 2.047 us for 256 launches: 125.06 M launches/s.
    EXPECT_EQ(sys.eq().now() - t0, 2'047'000u);
}

// ---------------------------------------------------------------------
// Overload protection and QoS (docs/robustness.md "Overload protection").
// ---------------------------------------------------------------------

TEST_F(StreamApiTest, BoundedQueueRejectsWithTypedOverloaded)
{
    // A full per-stream queue rejects at submit with a typed error; it
    // must NOT trip fail-fast (no issued launch failed) and the stream
    // stays usable.
    Buffers big = makeBuffers(*sys, *proc, 1u << 16);
    Buffers small = makeBuffers(*sys, *proc, 64);
    NdpStream &stream = rt->createStream();
    stream.setQueueLimit(2);

    NdpEvent head = stream.launch(vecAddLaunch(kid, big)); // in flight
    NdpEvent q1 = stream.launch(vecAddLaunch(kid, small)); // queued
    NdpEvent q2 = stream.launch(vecAddLaunch(kid, small)); // queued
    EXPECT_EQ(stream.queued(), 2u);
    NdpEvent rejected = stream.launch(vecAddLaunch(kid, small));

    EXPECT_TRUE(rejected.done()) << "rejection must be immediate";
    EXPECT_EQ(rejected.error(), NdpError::Overloaded);
    EXPECT_EQ(rt->stats().overload_rejections, 1u);

    // The accepted launches are unaffected by the rejection.
    EXPECT_GT(head.wait(), 0);
    EXPECT_GT(q1.wait(), 0);
    EXPECT_GT(q2.wait(), 0);
    EXPECT_EQ(rt->stats().aborted_launches, 0u)
        << "admission rejection tripped the fail-fast policy";
    // Queue drained -> submits are accepted again.
    EXPECT_GT(stream.launch(vecAddLaunch(kid, small)).wait(), 0);
}

TEST_F(StreamApiTest, DeviceQueueLimitRejectsWithTypedOverloaded)
{
    // Per-device admission: with every M2func launch slot busy, at most
    // device_queue_limit launches wait at the device; the rest reject.
    NdpRuntimeConfig cfg;
    cfg.device_queue_limit = 4;
    auto rt2 = sys->createRuntime(*proc, cfg);
    KernelResources res;
    res.num_int_regs = 4;
    std::int64_t nop = rt2->registerKernel("nop\n", res);
    ASSERT_GT(nop, 0);
    Addr pool = proc->allocate(4096);

    constexpr unsigned kLaunches = 72; // > 56 launch slots + 4 queued
    std::vector<NdpEvent> events;
    for (unsigned i = 0; i < kLaunches; ++i) {
        events.push_back(
            rt2->createStream().launch(LaunchDesc(nop, pool, pool + 32)));
    }
    std::uint64_t rejected = rt2->stats().overload_rejections;
    EXPECT_GT(rejected, 0u) << "device queue bound never engaged";
    rt2->synchronize();

    unsigned ok = 0, overloaded = 0;
    for (auto &ev : events) {
        ASSERT_TRUE(ev.done());
        if (ev.instanceId() > 0)
            ++ok;
        else if (ev.error() == NdpError::Overloaded)
            ++overloaded;
    }
    EXPECT_EQ(overloaded, rejected) << "rejections must be typed";
    EXPECT_EQ(ok + overloaded, kLaunches)
        << "every launch either completed or carried a typed error";
}

TEST_F(StreamApiTest, ExpiredDeadlineShedsWithoutRetry)
{
    // A queued launch whose deadline passed while it waited is shed with
    // DeadlineExceeded when its turn comes — and is never retried, even
    // on a Retry stream (retrying cannot un-expire a deadline).
    Buffers big = makeBuffers(*sys, *proc, 1u << 16);
    Buffers small = makeBuffers(*sys, *proc, 64);
    NdpStream &stream = rt->createStream();
    stream.setPolicy(StreamPolicy::Retry, 3, 1 * kUs);
    stream.setDeadline(1 * kUs); // far below the big kernel's runtime

    NdpEvent head = stream.launch(vecAddLaunch(kid, big));
    NdpEvent late = stream.launch(vecAddLaunch(kid, small));

    EXPECT_GT(head.wait(), 0) << "head launch met no deadline at issue";
    EXPECT_LT(late.wait(), 0);
    EXPECT_EQ(late.error(), NdpError::DeadlineExceeded);
    EXPECT_EQ(rt->stats().deadline_shed, 1u);
    EXPECT_EQ(rt->stats().relaunches, 0u)
        << "a shed deadline must not be retried";
}

TEST_F(StreamApiTest, TokenBucketThrottlesDeterministically)
{
    // A 1 Mlaunch/s bucket with burst 2: two launches go immediately,
    // the rest drain one per refill period, in FIFO order. Two identical
    // systems must produce identical completion ticks.
    auto run = [](std::vector<Tick> &completions) {
        SystemConfig scfg;
        scfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        System tsys(scfg);
        auto &tproc = tsys.createProcess();
        NdpRuntimeConfig cfg;
        cfg.rate_limit = 1e6;
        cfg.rate_burst = 2;
        auto trt = tsys.createRuntime(tproc, cfg);
        KernelResources res;
        res.num_int_regs = 4;
        std::int64_t nop = trt->registerKernel("nop\n", res);
        ASSERT_GT(nop, 0);
        Addr pool = tproc.allocate(4096);

        constexpr unsigned kLaunches = 6;
        std::vector<NdpEvent> events;
        for (unsigned i = 0; i < kLaunches; ++i) {
            events.push_back(trt->createStream().launch(
                LaunchDesc(nop, pool, pool + 32)));
        }
        EXPECT_EQ(trt->stats().throttled_launches, kLaunches - 2);
        trt->synchronize();
        for (auto &ev : events) {
            EXPECT_GT(ev.instanceId(), 0)
                << "throttling delays launches, it must not fail them";
            completions.push_back(ev.completedAt());
        }
    };

    std::vector<Tick> first, second;
    run(first);
    run(second);
    EXPECT_EQ(first, second) << "token bucket is not deterministic";

    ASSERT_EQ(first.size(), 6u);
    // The throttled launches are spaced by at least the refill period.
    constexpr Tick kPeriod = 1 * kUs; // 1e12 / 1e6
    for (std::size_t i = 3; i < first.size(); ++i) {
        EXPECT_GE(first[i], first[i - 1] + kPeriod)
            << "throttled launches " << i - 1 << " and " << i
            << " issued inside one refill period";
    }
}

TEST_F(StreamApiTest, WeightedPriorityGetsProportionalIssueShare)
{
    // Two equally wide kernels on streams with 2:1 WRR weights: while
    // both are resident, the weight-2 instance must draw ~2x the uthread
    // issue share from the controller's pullWork cursor — and the
    // weight-1 instance must keep progressing (no starvation).
    Buffers wide_a = makeBuffers(*sys, *proc, 1u << 18);
    Buffers wide_b = makeBuffers(*sys, *proc, 1u << 18);
    NdpStream &fast = rt->createStream();
    NdpStream &slow = rt->createStream();
    fast.setPriority(2);
    slow.setPriority(1);

    NdpEvent ev_fast = fast.launch(vecAddLaunch(kid, wide_a));
    NdpEvent ev_slow = slow.launch(vecAddLaunch(kid, wide_b));

    // Instance ids are assigned in launch order on the fresh system.
    const auto &ctrl = sys->device().controller();
    while (ctrl.activeInstances() < 2 && sys->eq().step()) {
    }
    ASSERT_EQ(ctrl.activeInstances(), 2u);

    // Let the cursor hand out a meaningful number of spawns, then
    // compare shares while both instances still have work to issue.
    constexpr std::uint64_t kProbe = 4096;
    while (ctrl.instanceSpawned(1) + ctrl.instanceSpawned(2) < kProbe &&
           sys->eq().step()) {
    }
    std::uint64_t fast_spawned = ctrl.instanceSpawned(1);
    std::uint64_t slow_spawned = ctrl.instanceSpawned(2);
    ASSERT_GT(slow_spawned, 0u) << "weight-1 stream was starved";
    double share = static_cast<double>(fast_spawned) /
                   static_cast<double>(slow_spawned);
    EXPECT_GT(share, 1.5) << "2:1 weights gave no priority advantage";
    EXPECT_LT(share, 2.5) << "2:1 weights over-served the fast stream";

    // Both finish; the weighted stream finishes first.
    EXPECT_GT(ev_fast.wait(), 0);
    EXPECT_GT(ev_slow.wait(), 0);
    EXPECT_LT(ev_fast.completedAt(), ev_slow.completedAt());
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, wide_a));
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, wide_b));
}

TEST_F(StreamApiTest, BatchedCompactLaunchesShareOneStore)
{
    // With every launch slot busy and a backlog of small-arg launches
    // waiting, freeing one slot issues TWO compact launches in a single
    // 64 B M2func store. Both must complete with distinct instance ids,
    // and the controller must parse two compact launches per batched
    // store the host sent.
    KernelResources res;
    res.num_int_regs = 4;
    std::int64_t nop = rt->registerKernel("nop\n", res);
    ASSERT_GT(nop, 0);
    Addr pool = proc->allocate(4096);

    constexpr unsigned kStreams = 60; // > 56 launch slots -> backlog forms
    constexpr unsigned kPerStream = 2;
    std::vector<NdpStream *> streams;
    for (unsigned s = 0; s < kStreams; ++s)
        streams.push_back(&rt->createStream());

    std::vector<NdpEvent> events;
    for (unsigned r = 0; r < kPerStream; ++r) {
        for (unsigned s = 0; s < kStreams; ++s) {
            events.push_back(
                streams[s]->launch(LaunchDesc(nop, pool, pool + 32)));
        }
    }
    rt->synchronize();

    const NdpRuntimeStats &st = rt->stats();
    EXPECT_GT(st.batched_stores, 0u) << "backlog never produced a batch";
    EXPECT_EQ(sys->device().controller().stats().launches_batched,
              2 * st.batched_stores)
        << "controller parsed a different number of compact launches";

    std::vector<std::int64_t> iids;
    for (auto &ev : events) {
        ASSERT_TRUE(ev.done());
        ASSERT_GT(ev.instanceId(), 0);
        iids.push_back(ev.instanceId());
    }
    std::sort(iids.begin(), iids.end());
    EXPECT_EQ(std::adjacent_find(iids.begin(), iids.end()), iids.end())
        << "batched halves resolved to the same kernel instance";
}

} // namespace
} // namespace m2ndp
