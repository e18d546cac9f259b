/**
 * @file
 * Deterministic fault injection and end-to-end error propagation:
 *
 *  - link faults (seeded CRC bit-errors and dropped flits) resolve via
 *    CXL replay — pure latency, bit-exact results, and the same seed
 *    reproduces the exact same fault schedule and final sim time,
 *  - NDP kernel traps (unmapped VA, scratchpad overflow, illegal
 *    instruction at registration) surface as typed NdpError codes on the
 *    NdpEvent instead of aborting the simulator,
 *  - the per-instance watchdog kills runaway kernels and reclaims every
 *    uthread slot, so the device stays usable,
 *  - register-file pressure caps sub-core occupancy without losing work,
 *    also when the watchdog kills a pressured instance, and registration
 *    rejects a kernel whose uthread no sub-core could hold,
 *  - stream policies (fail-fast, retry-with-backoff, skip-and-continue)
 *    shape what a launch error does to the rest of the stream,
 *  - losing a device mid-run on a 2-device runtime re-routes subsequent
 *    launches to the survivor while every affected launch reports a
 *    typed DeviceLost error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

/** Dereferences VA 0 (never mapped): traps with UnmappedAddress. */
const char *kWildLoad = R"(
    .name wildload
    ld x4, 0(x0)
)";

/** Reads past its declared scratchpad allocation: ScratchpadOverflow. */
const char *kSpadOob = R"(
    .name spadoob
    li x3, %spad
    ld x4, 120(x3)
)";

/** Gathers with 64-bit indices at e32: 8 indices fill two vector
 *  registers, which LMUL = 1 does not provide (IllegalInstruction). */
const char *kWideGather = R"(
    .name widegather
    vsetvli x0, x0, e32, m1
    vluxei64.v v1, (x1), v2
)";

/** Spins forever: only the watchdog can end it. */
const char *kSpin = R"(
    .name spin
spin_loop:
    j spin_loop
)";

struct Buffers
{
    Addr a = 0, b = 0, c = 0;
    unsigned elems = 0;
};

Buffers
makeBuffers(System &sys, ProcessAddressSpace &proc, unsigned elems)
{
    Buffers buf;
    buf.elems = elems;
    buf.a = proc.allocate(elems * 4);
    buf.b = proc.allocate(elems * 4);
    buf.c = proc.allocate(elems * 4);
    std::vector<float> va(elems), vb(elems);
    for (unsigned i = 0; i < elems; ++i) {
        va[i] = 1.0f * static_cast<float>(i);
        vb[i] = 2.0f * static_cast<float>(i);
    }
    sys.writeVirtual(proc, buf.a, va.data(), elems * 4);
    sys.writeVirtual(proc, buf.b, vb.data(), elems * 4);
    return buf;
}

bool
verifyVecAdd(System &sys, const ProcessAddressSpace &proc,
             const Buffers &buf)
{
    std::vector<float> vc(buf.elems);
    sys.readVirtual(proc, buf.c, vc.data(), buf.elems * 4);
    for (unsigned i = 0; i < buf.elems; ++i) {
        if (vc[i] != 3.0f * static_cast<float>(i))
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

/** Fixture: single device, trap-friendly kernels registered. */
class FaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SystemConfig cfg;
        cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        configure(cfg);
        sys = std::make_unique<System>(cfg);
        proc = &sys->createProcess();
        rt = sys->createRuntime(*proc);
        KernelResources res;
        res.num_int_regs = 8;
        res.num_vector_regs = 4;
        vecadd_kid = rt->registerKernel(kVecAdd, res);
        ASSERT_GT(vecadd_kid, 0);
        KernelResources scalar;
        scalar.num_int_regs = 8;
        scalar.scratchpad_bytes = 64;
        wild_kid = rt->registerKernel(kWildLoad, scalar);
        ASSERT_GT(wild_kid, 0);
        oob_kid = rt->registerKernel(kSpadOob, scalar);
        ASSERT_GT(oob_kid, 0);
    }

    virtual void configure(SystemConfig &) {}

    std::unique_ptr<System> sys;
    ProcessAddressSpace *proc = nullptr;
    std::unique_ptr<NdpRuntime> rt;
    std::int64_t vecadd_kid = 0;
    std::int64_t wild_kid = 0;
    std::int64_t oob_kid = 0;
};

/** One-uthread pool region for the trap kernels. */
LaunchDesc
tinyLaunch(std::int64_t kid, ProcessAddressSpace &proc)
{
    Addr pool = proc.allocate(4096);
    return LaunchDesc(kid, pool, pool + 32);
}

// -------------------------------------------------------------------------
// Device faults: kernel traps surface as typed errors, not aborts.
// -------------------------------------------------------------------------

TEST_F(FaultTest, UnmappedAddressTrapSurfacesTypedError)
{
    // Every offload scheme reports a trapped instance through the same
    // rule: the typed error, never the instance id.
    std::uint64_t traps = 0;
    for (OffloadScheme scheme :
         {OffloadScheme::M2Func, OffloadScheme::CxlIoRingBuffer,
          OffloadScheme::CxlIoDirect}) {
        SCOPED_TRACE(offloadSchemeName(scheme));
        NdpRuntimeConfig rc;
        rc.scheme = scheme;
        auto srt = sys->createRuntime(*proc, rc);
        KernelResources scalar;
        scalar.num_int_regs = 8;
        scalar.scratchpad_bytes = 64;
        std::int64_t kid = srt->registerKernel(kWildLoad, scalar);
        ASSERT_GT(kid, 0);

        NdpEvent ev = srt->createStream().launch(tinyLaunch(kid, *proc));
        ev.wait();
        ASSERT_TRUE(ev.done());
        EXPECT_TRUE(ev.failed());
        EXPECT_EQ(ev.error(), NdpError::UnmappedAddress);
        ++traps;

        auto units = sys->device().aggregateUnitStats();
        EXPECT_EQ(units.traps_unmapped, traps);
        EXPECT_EQ(sys->device().controller().stats().instances_faulted,
                  traps);
        // Every uthread slot was reclaimed; the device is fully usable.
        EXPECT_EQ(sys->device().activeContexts(), 0u);
        Buffers buf = makeBuffers(*sys, *proc, 256);
        EXPECT_GT(rt->createStream().launch(vecAddLaunch(vecadd_kid, buf))
                      .wait(),
                  0);
        EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
    }
}

TEST_F(FaultTest, ScratchpadOverflowTrapSurfacesTypedError)
{
    NdpStream &stream = rt->createStream();
    NdpEvent ev = stream.launch(tinyLaunch(oob_kid, *proc));
    ev.wait();
    ASSERT_TRUE(ev.done());
    EXPECT_EQ(ev.error(), NdpError::ScratchpadOverflow);
    EXPECT_GE(sys->device().aggregateUnitStats().traps_spad_oob, 1u);
    EXPECT_EQ(sys->device().activeContexts(), 0u);
}

TEST_F(FaultTest, IndexedAccessPastOneRegisterTrapsNotFatal)
{
    KernelResources res;
    res.num_int_regs = 4;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kWideGather, res);
    ASSERT_GT(kid, 0);

    NdpStream &stream = rt->createStream();
    NdpEvent ev = stream.launch(tinyLaunch(kid, *proc));
    ev.wait();
    ASSERT_TRUE(ev.done());
    EXPECT_TRUE(ev.failed());
    EXPECT_EQ(ev.error(), NdpError::IllegalInstruction);
    EXPECT_EQ(sys->device().controller().stats().instances_faulted, 1u);
    EXPECT_EQ(sys->device().activeContexts(), 0u);

    // The device keeps running ordinary kernels.
    Buffers buf = makeBuffers(*sys, *proc, 256);
    EXPECT_GT(stream.launch(vecAddLaunch(vecadd_kid, buf)).wait(), 0);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
}

TEST_F(FaultTest, IllegalKernelRegistrationRejectedNotFatal)
{
    KernelResources res;
    res.num_int_regs = 4;
    std::int64_t bad = rt->registerKernel("frobnicate x1, x2\n", res);
    EXPECT_LT(bad, 0);
    EXPECT_EQ(ndpErrorOf(bad), NdpError::IllegalInstruction);
    EXPECT_GE(sys->device().controller().stats().registrations_rejected,
              1u);
    // The runtime (and device) keep working after the rejection.
    Buffers buf = makeBuffers(*sys, *proc, 256);
    EXPECT_GT(rt->createStream().launch(vecAddLaunch(vecadd_kid, buf))
                  .wait(),
              0);
}

// -------------------------------------------------------------------------
// Watchdog: runaway kernels are killed and their resources reclaimed.
// -------------------------------------------------------------------------

class WatchdogTest : public FaultTest
{
  protected:
    void
    configure(SystemConfig &cfg) override
    {
        cfg.device.controller.watchdog_budget = 100 * kUs;
    }
};

TEST_F(WatchdogTest, KillsRunawayKernelAndReclaimsSlots)
{
    KernelResources res;
    res.num_int_regs = 4;
    std::int64_t spin_kid = rt->registerKernel(kSpin, res);
    ASSERT_GT(spin_kid, 0);

    NdpStream &stream = rt->createStream();
    NdpEvent ev = stream.launch(tinyLaunch(spin_kid, *proc));
    ev.wait();
    ASSERT_TRUE(ev.done());
    EXPECT_EQ(ev.error(), NdpError::WatchdogTimeout);

    const auto &cstats = sys->device().controller().stats();
    EXPECT_EQ(cstats.watchdog_kills, 1u);
    EXPECT_EQ(cstats.instances_faulted, 1u);
    EXPECT_GE(sys->device().aggregateUnitStats().uthreads_killed, 1u);
    EXPECT_EQ(sys->device().activeContexts(), 0u)
        << "watchdog kill leaked uthread slots";

    // The reclaimed device still runs ordinary kernels to completion.
    Buffers buf = makeBuffers(*sys, *proc, 256);
    EXPECT_GT(stream.launch(vecAddLaunch(vecadd_kid, buf)).wait(), 0);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
}

TEST_F(WatchdogTest, RetriedWatchdogKillBacksOffAndCountsAttempts)
{
    // Watchdog/retry interplay: each re-issue of a watchdog-killed launch
    // burns one retry AND waits the per-attempt exponential backoff —
    // a runaway kernel must not turn the retry policy into a tight
    // kill/relaunch spin that monopolizes the device.
    KernelResources res;
    res.num_int_regs = 4;
    std::int64_t spin_kid = rt->registerKernel(kSpin, res);
    ASSERT_GT(spin_kid, 0);

    NdpStream &stream = rt->createStream();
    constexpr Tick kBackoff = 1 * kUs;
    stream.setPolicy(StreamPolicy::Retry, 2, kBackoff);

    Tick t0 = sys->eq().now();
    NdpEvent ev = stream.launch(tinyLaunch(spin_kid, *proc));
    ev.wait();
    ASSERT_TRUE(ev.done());

    // The kernel spins on every attempt: retries exhaust and the final
    // watchdog error surfaces.
    EXPECT_EQ(ev.error(), NdpError::WatchdogTimeout);
    EXPECT_EQ(rt->stats().relaunches, 2u)
        << "watchdog kills must count toward max_retries";
    EXPECT_EQ(sys->device().controller().stats().watchdog_kills, 3u)
        << "initial attempt + 2 retries, each ended by the watchdog";

    // Timeline: 3 watchdog budgets plus the 1 us + 2 us backoffs.
    constexpr Tick kBudget = 100 * kUs; // WatchdogTest::configure
    EXPECT_GE(sys->eq().now() - t0, 3 * kBudget + 3 * kBackoff)
        << "retries of a watchdog kill skipped the backoff";

    // The device is clean afterwards: slots reclaimed, normal kernels run.
    EXPECT_EQ(sys->device().activeContexts(), 0u);
    Buffers buf = makeBuffers(*sys, *proc, 256);
    EXPECT_GT(stream.launch(vecAddLaunch(vecadd_kid, buf)).wait(), 0);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
}

// -------------------------------------------------------------------------
// Register-file pressure (Section III-D): a sub-core holds only as many
// uthreads as its share of the register file fits. Work that does not fit
// waits for registers to free up; it is never dropped or duplicated.
// -------------------------------------------------------------------------

/** Register bytes of one sub-core in the default unit (48 KiB / 4). */
std::uint64_t
subCoreRegBytes()
{
    NdpUnitConfig unit;
    return unit.regfile_bytes / unit.subcores;
}

/** The widest legal declaration: all 32 registers of every file (1.5 KiB). */
KernelResources
fatResources()
{
    KernelResources res;
    res.num_int_regs = 32;
    res.num_float_regs = 32;
    res.num_vector_regs = 32;
    return res;
}

TEST_F(FaultTest, RegisterPressureCapsOccupancyAndCompletes)
{
    // 8 x 8 B + 24 x 32 B = 832 B per uthread: 14 of 16 slots fit.
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 24;
    const std::uint64_t fit = subCoreRegBytes() / res.registerBytes();
    ASSERT_LT(fit, kSlotsPerSubcore);
    std::int64_t kid = rt->registerKernel(kVecAdd, res);
    ASSERT_GT(kid, 0);

    constexpr unsigned kUthreads = 8192;
    Buffers buf = makeBuffers(*sys, *proc, kUthreads * 8);
    std::uint64_t done0 = sys->device().aggregateUnitStats().uthreads_completed;
    NdpEvent ev = rt->createStream().launch(vecAddLaunch(kid, buf));
    unsigned peak = 0;
    while (!ev.done() && sys->eq().step())
        peak = std::max(peak, sys->device().activeContexts());
    ASSERT_TRUE(ev.done());
    EXPECT_EQ(ev.error(), NdpError::Ok);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
    EXPECT_EQ(sys->device().aggregateUnitStats().uthreads_completed - done0,
              kUthreads);
    const SystemConfig cfg;
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak, cfg.device.num_units * cfg.device.unit.subcores * fit)
        << "more uthreads resident than the register file holds";
    EXPECT_EQ(sys->device().activeContexts(), 0u);
}

TEST_F(FaultTest, FatAndThinKernelsShareRegisterFile)
{
    // Fat uthreads fill a sub-core at 8 per 16 slots; the thin
    // (4-vector-register) kernel competes for the same register file.
    std::int64_t fat_kid = rt->registerKernel(kVecAdd, fatResources());
    ASSERT_GT(fat_kid, 0);

    Buffers fat_buf = makeBuffers(*sys, *proc, 1u << 15);
    Buffers thin_buf = makeBuffers(*sys, *proc, 1u << 15);
    NdpEvent ev_fat =
        rt->createStream().launch(vecAddLaunch(fat_kid, fat_buf));
    NdpEvent ev_thin =
        rt->createStream().launch(vecAddLaunch(vecadd_kid, thin_buf));
    ev_fat.wait();
    ev_thin.wait();
    ASSERT_TRUE(ev_fat.done());
    ASSERT_TRUE(ev_thin.done());
    EXPECT_EQ(ev_fat.error(), NdpError::Ok);
    EXPECT_EQ(ev_thin.error(), NdpError::Ok);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, fat_buf));
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, thin_buf));
    EXPECT_EQ(sys->device().activeContexts(), 0u);
}

class PressureWatchdogTest : public FaultTest
{
  protected:
    void
    configure(SystemConfig &cfg) override
    {
        cfg.device.controller.watchdog_budget = 5 * kUs;
    }
};

TEST_F(PressureWatchdogTest, KillsPressuredInstanceAndDeviceRecovers)
{
    // Fat spinners fill half of every sub-core's slots; a pool twice
    // that size leaves the rest waiting for registers when the watchdog
    // fires.
    std::int64_t spin_kid = rt->registerKernel(kSpin, fatResources());
    ASSERT_GT(spin_kid, 0);

    NdpStream &stream = rt->createStream();
    const std::uint64_t pool_bytes = 2 * 1024 * 32;
    Addr pool = proc->allocate(pool_bytes);
    NdpEvent ev = stream.launch(LaunchDesc(spin_kid, pool, pool + pool_bytes));
    ev.wait();
    ASSERT_TRUE(ev.done());
    EXPECT_EQ(ev.error(), NdpError::WatchdogTimeout);
    const auto &cstats = sys->device().controller().stats();
    EXPECT_EQ(cstats.watchdog_kills, 1u);
    EXPECT_EQ(cstats.instances_faulted, 1u);
    EXPECT_EQ(sys->device().activeContexts(), 0u)
        << "watchdog kill under register pressure leaked uthread slots";

    // Every sub-core's registers came back: a full vecadd runs cleanly.
    Buffers buf = makeBuffers(*sys, *proc, 4096);
    EXPECT_GT(stream.launch(vecAddLaunch(vecadd_kid, buf)).wait(), 0);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
    EXPECT_EQ(sys->device().activeContexts(), 0u);
}

class NarrowSubCoreTest : public FaultTest
{
  protected:
    void
    configure(SystemConfig &cfg) override
    {
        cfg.device.unit.subcores = 8; // 48 KiB / 8 = 6144 B per sub-core
    }
};

TEST_F(NarrowSubCoreTest, RegistrationRejectsKernelNoSubCoreCanHold)
{
    // 8 x 8 B + 200 x 32 B = 6464 B per uthread exceeds a 6144 B
    // sub-core: no uthread could ever spawn, so the registration must
    // fail rather than the launch hang.
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 200;
    std::uint64_t rejected0 =
        sys->device().controller().stats().registrations_rejected;
    EXPECT_EQ(rt->registerKernel(kVecAdd, res),
              static_cast<std::int64_t>(NdpError::RegistrationFailed));
    EXPECT_EQ(sys->device().controller().stats().registrations_rejected,
              rejected0 + 1);
}

class TinyRegisterFileTest : public FaultTest
{
  protected:
    void
    configure(SystemConfig &cfg) override
    {
        cfg.device.unit.regfile_bytes = 8 * 1024; // 1 KiB per sub-core
        cfg.device.unit.subcores = 8;
    }
};

TEST_F(TinyRegisterFileTest, RegistrationChecksSubCoreRegisterBudget)
{
    // 8 x 8 B + 32 x 32 B = 1088 B: 64 B over the 1 KiB budget.
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 32;
    EXPECT_EQ(rt->registerKernel(kVecAdd, res),
              static_cast<std::int64_t>(NdpError::RegistrationFailed));

    // 8 x 8 B + 30 x 32 B = 1024 B fills a sub-core exactly: it
    // registers and runs one uthread per sub-core at a time.
    res.num_vector_regs = 30;
    std::int64_t kid = rt->registerKernel(kVecAdd, res);
    ASSERT_GT(kid, 0);
    Buffers buf = makeBuffers(*sys, *proc, 4096);
    EXPECT_GT(rt->createStream().launch(vecAddLaunch(kid, buf)).wait(), 0);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
}

TEST_F(FaultTest, RegistrationRejectsMoreRegistersThanTheIsaHas)
{
    // x/f/v files have 32 registers each; a larger declaration cannot be
    // provisioned in a uthread context.
    KernelResources ints, floats, vectors;
    ints.num_int_regs = 33;
    floats.num_float_regs = 33;
    vectors.num_vector_regs = 33;
    for (const KernelResources &res : {ints, floats, vectors}) {
        EXPECT_EQ(rt->registerKernel(kVecAdd, res),
                  static_cast<std::int64_t>(NdpError::RegistrationFailed));
    }
    EXPECT_GT(rt->registerKernel(kVecAdd, fatResources()), 0);
}

// -------------------------------------------------------------------------
// Stream policies: what a launch error does to the rest of the stream.
// -------------------------------------------------------------------------

TEST_F(FaultTest, FailFastAbortsQueuedLaunches)
{
    Buffers buf = makeBuffers(*sys, *proc, 256);
    NdpStream &stream = rt->createStream();
    ASSERT_EQ(stream.policy(), StreamPolicy::FailFast);

    NdpEvent bad = stream.launch(tinyLaunch(wild_kid, *proc));
    NdpEvent q1 = stream.launch(vecAddLaunch(vecadd_kid, buf));
    NdpEvent q2 = stream.launch(vecAddLaunch(vecadd_kid, buf));
    stream.synchronize();

    EXPECT_EQ(bad.error(), NdpError::UnmappedAddress);
    EXPECT_EQ(q1.error(), NdpError::Aborted);
    EXPECT_EQ(q2.error(), NdpError::Aborted);
    EXPECT_EQ(rt->stats().aborted_launches, 2u);
    EXPECT_TRUE(stream.idle());

    // The stream itself survives: new launches run normally.
    EXPECT_GT(stream.launch(vecAddLaunch(vecadd_kid, buf)).wait(), 0);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
}

TEST_F(FaultTest, LaunchFromAnAbortHookRuns)
{
    // The hook of the last launch a fail-fast abort drains may submit to
    // the same stream again. That launch must run: lost with the drained
    // queue, it would keep the stream from ever going idle.
    Buffers buf = makeBuffers(*sys, *proc, 256);
    NdpStream &stream = rt->createStream();
    NdpEvent bad = stream.launch(tinyLaunch(wild_kid, *proc));
    NdpEvent queued = stream.launch(vecAddLaunch(vecadd_kid, buf));
    NdpEvent follow_up;
    queued.onComplete([this, &stream, &buf, &follow_up](std::int64_t, Tick) {
        follow_up = stream.launch(vecAddLaunch(vecadd_kid, buf));
    });
    stream.synchronize();

    EXPECT_EQ(bad.error(), NdpError::UnmappedAddress);
    EXPECT_EQ(queued.error(), NdpError::Aborted);
    ASSERT_TRUE(follow_up.valid());
    EXPECT_GT(follow_up.instanceId(), 0);
    EXPECT_TRUE(stream.idle());
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
}

TEST_F(FaultTest, SkipAndContinueRunsQueuedLaunches)
{
    Buffers buf = makeBuffers(*sys, *proc, 256);
    NdpStream &stream = rt->createStream();
    stream.setPolicy(StreamPolicy::SkipAndContinue);

    NdpEvent bad = stream.launch(tinyLaunch(wild_kid, *proc));
    NdpEvent good = stream.launch(vecAddLaunch(vecadd_kid, buf));
    stream.synchronize();

    EXPECT_EQ(bad.error(), NdpError::UnmappedAddress);
    EXPECT_FALSE(good.failed());
    EXPECT_GT(good.instanceId(), 0);
    EXPECT_TRUE(verifyVecAdd(*sys, *proc, buf));
    EXPECT_EQ(rt->stats().aborted_launches, 0u);
}

TEST_F(FaultTest, RetryBacksOffAndExhaustsOnPersistentFault)
{
    NdpStream &stream = rt->createStream();
    stream.setPolicy(StreamPolicy::Retry, 2, 1 * kUs);

    NdpEvent ev = stream.launch(tinyLaunch(wild_kid, *proc));
    Tick t0 = sys->eq().now();
    ev.wait();
    ASSERT_TRUE(ev.done());
    // The fault is persistent: both retries burn, the final error wins.
    EXPECT_EQ(ev.error(), NdpError::UnmappedAddress);
    EXPECT_EQ(rt->stats().relaunches, 2u);
    // Two backoffs (1 us, then 2 us) are on the critical path.
    EXPECT_GE(sys->eq().now() - t0, 3 * kUs);

    // A retry stream continues after exhaustion.
    Buffers buf = makeBuffers(*sys, *proc, 256);
    EXPECT_GT(stream.launch(vecAddLaunch(vecadd_kid, buf)).wait(), 0);
}

// -------------------------------------------------------------------------
// Link faults: deterministic injection, replay-resolved, bit-exact.
// -------------------------------------------------------------------------

SystemConfig
faultyConfig(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    cfg.fault.enabled = true;
    cfg.fault.seed = seed;
    // Rates are deliberately hot: only the M2func launch/return traffic
    // crosses the link in this workload (~4 messages per launch), so the
    // per-message fault probability must be high enough that the fixed
    // seed reliably schedules replays within a few dozen messages.
    cfg.fault.bit_error_rate = 1e-3;
    cfg.fault.drop_rate = 5e-3;
    return cfg;
}

struct FaultRunResult
{
    Tick final_now = 0;
    std::uint64_t crc_replays = 0;
    std::uint64_t dropped_flits = 0;
    std::uint64_t messages = 0;
    std::vector<float> result;
};

FaultRunResult
runFaultyVecAdd(std::uint64_t seed)
{
    System sys(faultyConfig(seed));
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kVecAdd, res);
    EXPECT_GT(kid, 0);

    Buffers buf = makeBuffers(sys, proc, 1u << 12);
    NdpStream &stream = rt->createStream();
    for (int i = 0; i < 16; ++i)
        stream.launch(vecAddLaunch(kid, buf));
    rt->synchronize();

    FaultRunResult r;
    r.final_now = sys.eq().now();
    const FaultStats &fs = sys.link(0).faultStats();
    r.crc_replays = fs.crc_replays;
    r.dropped_flits = fs.dropped_flits;
    r.messages = fs.messages_checked;
    r.result.resize(buf.elems);
    sys.readVirtual(proc, buf.c, r.result.data(), buf.elems * 4);
    EXPECT_TRUE(verifyVecAdd(sys, proc, buf))
        << "replay-resolved link faults must not corrupt data";
    return r;
}

TEST(FaultDeterminism, SameSeedIsBitExact)
{
    FaultRunResult a = runFaultyVecAdd(0x5eed);
    FaultRunResult b = runFaultyVecAdd(0x5eed);
    // Faults actually fired...
    EXPECT_GT(a.crc_replays, 0u);
    EXPECT_GT(a.messages, 0u);
    // ...and the two runs are indistinguishable: same fault schedule,
    // same replay counts, same final simulated time, same bytes.
    EXPECT_EQ(a.final_now, b.final_now);
    EXPECT_EQ(a.crc_replays, b.crc_replays);
    EXPECT_EQ(a.dropped_flits, b.dropped_flits);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.result, b.result);
}

TEST(FaultDeterminism, NopBurstAtBer1e4ReplaysWithoutRelaunchGolden)
{
    // 256 near-empty launches on 16 retry-policy streams with the link
    // at a 1e-4 bit-error rate and the default seed. Every CRC hit is
    // resolved by CXL replay, which costs latency but loses no data, so
    // every launch completes and no stream relaunches.
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    cfg.fault.enabled = true;
    cfg.fault.bit_error_rate = 1e-4;
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
    for (unsigned s = 0; s < kStreams; ++s) {
        streams.push_back(&rt->createStream());
        streams.back()->setPolicy(StreamPolicy::Retry);
    }
    Tick t0 = sys.eq().now();
    std::vector<NdpEvent> events;
    for (unsigned i = 0; i < kLaunches; ++i) {
        events.push_back(
            streams[i % kStreams]->launch(LaunchDesc(kid, pool, pool + 32)));
    }
    rt->synchronize();

    unsigned completed = 0;
    for (const auto &ev : events)
        completed += ev.done() && !ev.failed() ? 1 : 0;
    EXPECT_EQ(completed, kLaunches);
    EXPECT_EQ(sys.link(0).faultStats().crc_replays, 19u);
    EXPECT_EQ(rt->stats().relaunches, 0u);
    EXPECT_EQ(sys.eq().now() - t0, 3'035'953u);
}

TEST(FaultDeterminism, InjectionOnlyAddsLatency)
{
    // The same workload without injection finishes strictly earlier and
    // checks no messages; with injection the replay penalties stretch the
    // timeline but the data is identical (checked inside the helpers).
    FaultRunResult faulty = runFaultyVecAdd(0x5eed);

    System sys{[] {
        SystemConfig cfg;
        cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
        return cfg;
    }()};
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kVecAdd, res);
    ASSERT_GT(kid, 0);
    Buffers buf = makeBuffers(sys, proc, 1u << 12);
    NdpStream &stream = rt->createStream();
    for (int i = 0; i < 16; ++i)
        stream.launch(vecAddLaunch(kid, buf));
    rt->synchronize();

    EXPECT_EQ(sys.link(0).faultStats().messages_checked, 0u)
        << "disabled injection must not even check messages";
    EXPECT_LT(sys.eq().now(), faulty.final_now)
        << "replay penalties should stretch the faulty timeline";
    EXPECT_TRUE(verifyVecAdd(sys, proc, buf));
}

// -------------------------------------------------------------------------
// Device loss: a 2-device runtime degrades onto the survivor.
// -------------------------------------------------------------------------

TEST(DeviceLost, MidRunFailoverCompletesOnSurvivor)
{
    SystemConfig cfg;
    cfg.num_devices = 2;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    System sys(cfg);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);
    ASSERT_EQ(rt->numDevices(), 2u);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kVecAdd, res);
    ASSERT_GT(kid, 0);

    // A long burst bound to device 1; skip-and-continue so the stream
    // keeps draining past the errors the loss inflicts.
    constexpr unsigned kLaunches = 12;
    Buffers buf = makeBuffers(sys, proc, 1u << 12);
    NdpStream &stream = rt->createStream(1);
    stream.setPolicy(StreamPolicy::SkipAndContinue);
    std::vector<NdpEvent> events;
    for (unsigned i = 0; i < kLaunches; ++i)
        events.push_back(stream.launch(vecAddLaunch(kid, buf)));

    // Let a couple of launches complete, then sever device 1's link.
    unsigned completed_before_cut = 0;
    while (!events[1].done() && sys.eq().step()) {
    }
    ASSERT_TRUE(events[1].done());
    for (const auto &ev : events)
        completed_before_cut += ev.done() ? 1 : 0;
    sys.link(1).forceLinkDown();

    rt->synchronize();

    // Every launch completed: pre-cut ones cleanly on device 1, the ones
    // caught by the loss with a typed DeviceLost, the rest re-routed to
    // device 0 and finished there.
    unsigned ok = 0, lost = 0;
    for (const auto &ev : events) {
        ASSERT_TRUE(ev.done());
        if (ev.failed()) {
            EXPECT_EQ(ev.error(), NdpError::DeviceLost);
            ++lost;
        } else {
            ++ok;
        }
    }
    EXPECT_GE(ok, completed_before_cut);
    EXPECT_GT(lost, 0u) << "the cut should catch at least one launch";
    EXPECT_GT(ok, completed_before_cut)
        << "post-cut launches should succeed on the survivor";
    EXPECT_TRUE(rt->deviceLost(1));
    EXPECT_EQ(rt->stats().devices_lost, 1u);
    EXPECT_GT(rt->stats().failovers, 0u);
    EXPECT_GT(sys.device(0).aggregateUnitStats().uthreads_completed, 0u)
        << "survivor never ran anything";

    // New launches keep landing on the survivor, transparently.
    EXPECT_GT(stream.launch(vecAddLaunch(kid, buf)).wait(), 0);
    EXPECT_TRUE(verifyVecAdd(sys, proc, buf));
}

TEST(DeviceLost, RetryPolicyFailsOverInsteadOfFailing)
{
    SystemConfig cfg;
    cfg.num_devices = 2;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    System sys(cfg);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kVecAdd, res);
    ASSERT_GT(kid, 0);

    Buffers buf = makeBuffers(sys, proc, 1u << 12);
    NdpStream &stream = rt->createStream(1);
    stream.setPolicy(StreamPolicy::Retry, 3, 1 * kUs);

    std::vector<NdpEvent> events;
    for (unsigned i = 0; i < 6; ++i)
        events.push_back(stream.launch(vecAddLaunch(kid, buf)));
    while (!events[0].done() && sys.eq().step()) {
    }
    sys.link(1).forceLinkDown();
    rt->synchronize();

    // With retries available, a launch interrupted by the loss re-issues
    // and lands on the survivor: nothing ultimately fails.
    for (auto &ev : events) {
        ASSERT_TRUE(ev.done());
        EXPECT_FALSE(ev.failed())
            << "retry should have re-routed: " << ndpErrorName(ev.error());
    }
    EXPECT_TRUE(verifyVecAdd(sys, proc, buf));
    EXPECT_GT(rt->stats().failovers, 0u);
}

TEST(DeviceLost, FailoverRespectsSurvivorAdmissionLimits)
{
    // Graceful degradation under combined loss + pressure: launches
    // re-routed off a lost device pass through the survivor's admission
    // control like any other launch. With the survivor nearly full, the
    // overflow must surface as typed Overloaded rejections — never as a
    // silent unbounded queue on the survivor.
    SystemConfig cfg;
    cfg.num_devices = 2;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    System sys(cfg);
    auto &proc = sys.createProcess();
    NdpRuntimeConfig rtcfg;
    rtcfg.device_queue_limit = 4;
    auto rt = sys.createRuntime(proc, rtcfg);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kVecAdd, res);
    ASSERT_GT(kid, 0);

    // Fill most of the survivor's 56 launch slots with long kernels.
    Buffers big = makeBuffers(sys, proc, 1u << 16);
    std::vector<NdpEvent> background;
    for (unsigned i = 0; i < 50; ++i)
        background.push_back(
            rt->createStream(0).launch(vecAddLaunch(kid, big)));

    // Two launches per stream on device 1: the in-flight ones are caught
    // by the loss, the queued ones re-route to the survivor.
    Buffers small = makeBuffers(sys, proc, 256);
    std::vector<NdpEvent> victims;
    std::vector<NdpStream *> streams;
    for (unsigned i = 0; i < 30; ++i) {
        streams.push_back(&rt->createStream(1));
        streams.back()->setPolicy(StreamPolicy::SkipAndContinue);
        victims.push_back(streams.back()->launch(vecAddLaunch(kid, small)));
        victims.push_back(streams.back()->launch(vecAddLaunch(kid, small)));
    }
    sys.link(1).forceLinkDown();
    rt->synchronize();

    unsigned ok = 0, lost = 0, overloaded = 0;
    for (auto &ev : victims) {
        ASSERT_TRUE(ev.done()) << "overloaded failover hung a launch";
        switch (ev.error()) {
          case NdpError::Ok:
            ++ok;
            break;
          case NdpError::DeviceLost:
            ++lost;
            break;
          case NdpError::Overloaded:
            ++overloaded;
            break;
          default:
            FAIL() << "unexpected error " << ndpErrorName(ev.error());
        }
    }
    EXPECT_EQ(ok + lost + overloaded, victims.size());
    EXPECT_GT(lost, 0u) << "the cut caught nothing in flight";
    EXPECT_GT(overloaded, 0u)
        << "failover bypassed the survivor's admission limits";
    EXPECT_GT(ok, 0u) << "the survivor's spare capacity went unused";
    EXPECT_GT(rt->stats().overload_rejections, 0u);

    // The background work on the survivor is unharmed.
    for (auto &ev : background)
        EXPECT_GT(ev.wait(), 0);
    EXPECT_TRUE(verifyVecAdd(sys, proc, big));
}

} // namespace
} // namespace m2ndp
