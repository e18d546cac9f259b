/**
 * @file
 * Tests for the memory subsystem: sparse memory, page tables, DRAM timing,
 * caches, crossbar, and the CXL link.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cache/cache.hh"
#include "cxl/link.hh"
#include "cxl/packet_filter.hh"
#include "dram/dram.hh"
#include "dram_timings.hh"
#include "mem/page_table.hh"
#include "mem/sparse_memory.hh"
#include "noc/crossbar.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"

namespace m2ndp {
namespace {

// ---------------------------------------------------------------- memory

TEST(SparseMemory, ZeroFilledAndSparse)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read<std::uint64_t>(0x123456789), 0u);
    EXPECT_EQ(mem.framesAllocated(), 0u); // reads do not allocate
    mem.write<std::uint32_t>(0x1000, 42);
    EXPECT_EQ(mem.read<std::uint32_t>(0x1000), 42u);
    EXPECT_EQ(mem.framesAllocated(), 1u);

    // The page/frame table: a page is created frameless, a frame only on
    // its first write, and neither moves once created.
    constexpr Addr kBase = 7 * SparseMemory::kPageBytes;
    SparseMemory::Page &page = mem.pageFor(kBase + 0x10);
    EXPECT_EQ(&mem.pageFor(kBase + SparseMemory::kPageBytes - 1), &page);
    EXPECT_EQ(page.find(kBase + 0x2000), nullptr);
    std::uint8_t buf[16] = {1, 2, 3};
    SparseMemory::read(page, kBase + 0x2000 - 8, buf, sizeof(buf));
    EXPECT_EQ(buf[0], 0u);
    EXPECT_EQ(mem.framesAllocated(), 1u); // reads allocate no frame
    std::uint8_t *frame = mem.frameFor(page, kBase + 0x2008);
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(mem.framesAllocated(), 2u);
    EXPECT_EQ(page.find(kBase + 0x2fff), frame);
    EXPECT_EQ(page.find(kBase + 0x3000), nullptr);
    frame[8] = 0x5a;
    EXPECT_EQ(mem.read<std::uint8_t>(kBase + 0x2008), 0x5au);
    for (Addr i = 1; i <= 1000; ++i)
        mem.pageFor(kBase + i * SparseMemory::kPageBytes);
    EXPECT_EQ(&mem.pageFor(kBase), &page);
    EXPECT_EQ(mem.frameFor(page, kBase + 0x2000), frame);
    EXPECT_EQ(frame[8], 0x5au);
    EXPECT_EQ(mem.framesAllocated(), 2u);
}

TEST(SparseMemory, CrossFrameAccess)
{
    SparseMemory mem;
    std::uint8_t data[64];
    for (int i = 0; i < 64; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    // Straddles the 4 KiB frame boundary.
    mem.write(4096 - 32, data, 64);
    std::uint8_t out[64] = {};
    mem.read(4096 - 32, out, 64);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], i);
    EXPECT_EQ(mem.framesAllocated(), 2u);
}

TEST(SparseMemory, AmoOps)
{
    SparseMemory mem;
    mem.write<std::uint64_t>(0x100, 10);
    EXPECT_EQ(amoExecute(mem, AmoOp::Add, 0x100, 5, 8), 10u);
    EXPECT_EQ(mem.read<std::uint64_t>(0x100), 15u);
    EXPECT_EQ(amoExecute(mem, AmoOp::Swap, 0x100, 99, 8), 15u);
    EXPECT_EQ(mem.read<std::uint64_t>(0x100), 99u);
    mem.write<std::uint32_t>(0x200, static_cast<std::uint32_t>(-5));
    amoExecute(mem, AmoOp::Min, 0x200, static_cast<std::uint32_t>(-10), 4);
    EXPECT_EQ(static_cast<std::int32_t>(mem.read<std::uint32_t>(0x200)), -10);
    amoExecute(mem, AmoOp::MaxU, 0x200, 1, 4);
    // -10 as unsigned is huge, so MaxU keeps it.
    EXPECT_EQ(static_cast<std::int32_t>(mem.read<std::uint32_t>(0x200)), -10);
}

TEST(PageTable, MapTranslateUnmap)
{
    PageTable pt(7);
    pt.map(layout::kHeapVaBase, layout::deviceBase(0));
    auto pa = pt.translate(layout::kHeapVaBase + 12345);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, layout::deviceBase(0) + 12345);
    EXPECT_FALSE(pt.translate(layout::kHeapVaBase + 2 * kMiB).has_value());
    EXPECT_TRUE(pt.unmap(layout::kHeapVaBase));
    EXPECT_FALSE(pt.translate(layout::kHeapVaBase).has_value());
}

TEST(PageTable, DoubleMapPanics)
{
    PageTable pt(1);
    pt.map(layout::kHeapVaBase, layout::deviceBase(0));
    EXPECT_THROW(pt.map(layout::kHeapVaBase, layout::deviceBase(0) + 2 * kMiB),
                 std::logic_error);
}

TEST(AddressSpace, LocalizedAndInterleavedPlacement)
{
    PhysAllocator dev0(layout::deviceBase(0), 1 * kGiB);
    PhysAllocator dev1(layout::deviceBase(1), 1 * kGiB);
    ProcessAddressSpace as(3, {&dev0, &dev1});

    Addr va = as.allocate(8 * kMiB, Placement::Localized, 0);
    EXPECT_EQ(layout::deviceOf(*as.translate(va)), 0u);
    EXPECT_EQ(layout::deviceOf(*as.translate(va + 6 * kMiB)), 0u);

    Addr vb = as.allocate(8 * kMiB, Placement::InterleavedPages);
    EXPECT_EQ(layout::deviceOf(*as.translate(vb)), 0u);
    EXPECT_EQ(layout::deviceOf(*as.translate(vb + 2 * kMiB)), 1u);
    EXPECT_EQ(layout::deviceOf(*as.translate(vb + 4 * kMiB)), 0u);
}

TEST(AddressSpace, ExhaustionIsFatal)
{
    PhysAllocator tiny(layout::deviceBase(0), 4 * kMiB);
    ProcessAddressSpace as(4, {&tiny});
    as.allocate(4 * kMiB);
    EXPECT_THROW(as.allocate(2 * kMiB), std::runtime_error);
}

// ---------------------------------------------------------------- DRAM

/** Drain @p n back-to-back reads through a DramDevice and return the
 *  average achieved bandwidth in GB/s. */
double
streamBandwidth(const DramTiming &timing, unsigned channels, unsigned n,
                std::uint64_t stride)
{
    EventQueue eq;
    DramDevice dram(eq, timing, channels);
    unsigned completed = 0;
    Tick last = 0;
    for (unsigned i = 0; i < n; ++i) {
        auto pkt = MemPacketPtr(MemPacketPool::alloc());
        pkt->op = MemOp::Read;
        pkt->addr = static_cast<Addr>(i) * stride;
        pkt->size = timing.access_bytes;
        pkt->onComplete = [&](Tick t) {
            ++completed;
            last = std::max(last, t);
        };
        dram.receive(std::move(pkt), eq.now());
    }
    eq.run();
    EXPECT_EQ(completed, n);
    auto stats = dram.totalStats();
    EXPECT_EQ(stats.reads, n);
    return bytesPerSecond(stats.bytes, last) / 1e9;
}

TEST(Dram, Lpddr5PeakBandwidthApproached)
{
    auto timing = DramTiming::lpddr5();
    // Sequential stream over 32 channels: should achieve close to the
    // 409.6 GB/s aggregate peak.
    double bw = streamBandwidth(timing, 32, 40000, timing.access_bytes);
    EXPECT_GT(bw, 0.80 * 409.6);
    EXPECT_LE(bw, 410.0);
}

TEST(Dram, SingleChannelRowHitVsMissLatency)
{
    auto timing = DramTiming::lpddr5();
    EventQueue eq;
    DramDevice dram(eq, timing, 1);

    Tick first = 0, second = 0, far = 0;
    auto send = [&](Addr addr, Tick *out) {
        auto pkt = MemPacketPtr(MemPacketPool::alloc());
        pkt->op = MemOp::Read;
        pkt->addr = addr;
        pkt->size = 32;
        pkt->onComplete = [out](Tick t) { *out = t; };
        dram.receive(std::move(pkt), eq.now());
        eq.run();
    };
    send(0, &first);            // row miss (empty bank)
    send(32, &second);          // same row: hit
    send(64 * kMiB, &far);      // different row in same bank set: miss

    auto stats = dram.totalStats();
    EXPECT_EQ(stats.row_hits, 1u);
    EXPECT_EQ(stats.row_misses, 2u);
    // Hit latency ~ tCL + burst; miss adds tRP + tRCD.
    Tick hit_latency = second - first;
    EXPECT_LT(hit_latency, timing.tck * (timing.n_cl + 4));
}

TEST(Dram, HashedInterleavingSpreadsChannels)
{
    auto timing = DramTiming::lpddr5();
    DramAddressMap map(32, timing, 256);
    std::vector<unsigned> counts(32, 0);
    // Strided access at 8 KiB (would hammer one channel with naive modulo
    // if stride aligned with channel count * interleave).
    for (unsigned i = 0; i < 3200; ++i)
        ++counts[map.decode(static_cast<Addr>(i) * 8192).channel];
    for (unsigned c = 0; c < 32; ++c) {
        EXPECT_GT(counts[c], 50u) << "channel " << c << " starved";
        EXPECT_LT(counts[c], 200u) << "channel " << c << " hammered";
    }
}

TEST(Dram, PeakBandwidthNumbers)
{
    EventQueue eq;
    DramDevice lpddr5(eq, DramTiming::lpddr5(), 32);
    EXPECT_NEAR(lpddr5.peakBandwidth() / 1e9, 409.6, 1.0);
    DramDevice ddr5(eq, test::ddr5Timing(), 8);
    EXPECT_NEAR(ddr5.peakBandwidth() / 1e9, 409.6, 1.0);
    DramDevice hbm2(eq, test::hbm2Timing(), 32);
    EXPECT_NEAR(hbm2.peakBandwidth() / 1e9, 1024.0, 2.0);
}

// ---------------------------------------------------------------- cache

/** Terminal memory that completes everything after a fixed delay. */
class FixedLatencyMem : public MemPort
{
  public:
    FixedLatencyMem(EventQueue &eq, Tick latency) : eq_(eq), latency_(latency) {}

    void
    receive(MemPacketPtr pkt, Tick /*at*/) override
    {
        ++accesses;
        bytes += pkt->size;
        auto *raw = pkt.release();
        EventQueue &eq = eq_;
        eq_.scheduleAfter(latency_, [raw, &eq] {
            MemPacketPtr p(raw);
            // complete(), not onComplete directly: a missing packet rides
            // through with its fill frames on the hop stack.
            p->complete(eq.now());
        });
    }

    std::uint64_t accesses = 0;
    std::uint64_t bytes = 0;

  private:
    EventQueue &eq_;
    Tick latency_;
};

CacheConfig
testCacheConfig()
{
    CacheConfig cfg;
    cfg.size = 8 * 1024; // four 16-way sets of 128 B lines, 32 B sectors
    cfg.latency = 2000;  // 4 cycles @ 2 GHz
    cfg.port_cycle = 500;
    return cfg;
}

Tick
accessCache(EventQueue &eq, Cache &cache, MemOp op, Addr addr)
{
    Tick done = kTickMax;
    auto pkt = MemPacketPtr(MemPacketPool::alloc());
    pkt->op = op;
    pkt->addr = addr;
    pkt->size = 32;
    pkt->onComplete = [&](Tick t) { done = t; };
    cache.receive(std::move(pkt), eq.now());
    eq.run();
    return done;
}

TEST(Cache, HitAfterFill)
{
    EventQueue eq;
    FixedLatencyMem mem(eq, 50000);
    auto cfg = testCacheConfig();
    Cache cache(eq, cfg, mem);

    Tick miss_done = accessCache(eq, cache, MemOp::Read, 0x1000);
    EXPECT_GE(miss_done, 50000u);
    EXPECT_EQ(cache.stats().read_misses, 1u);

    Tick t0 = eq.now();
    Tick hit_done = accessCache(eq, cache, MemOp::Read, 0x1000);
    EXPECT_EQ(cache.stats().read_hits, 1u);
    EXPECT_LT(hit_done - t0, 10000u);
}

TEST(Cache, SectorGranularity)
{
    EventQueue eq;
    FixedLatencyMem mem(eq, 50000);
    Cache cache(eq, testCacheConfig(), mem);

    accessCache(eq, cache, MemOp::Read, 0x1000); // sector 0 of line
    // Different sector of the SAME line still misses (sectored fill).
    accessCache(eq, cache, MemOp::Read, 0x1000 + 32);
    EXPECT_EQ(cache.stats().read_misses, 2u);
    EXPECT_EQ(mem.accesses, 2u);
    EXPECT_EQ(mem.bytes, 64u); // two 32 B sector fills, not 2 x 128 B lines
}

TEST(Cache, MshrMergesDuplicateSectorMisses)
{
    EventQueue eq;
    FixedLatencyMem mem(eq, 50000);
    Cache cache(eq, testCacheConfig(), mem);

    int completed = 0;
    for (int i = 0; i < 4; ++i) {
        auto pkt = MemPacketPtr(MemPacketPool::alloc());
        pkt->op = MemOp::Read;
        pkt->addr = 0x2000;
        pkt->size = 32;
        pkt->onComplete = [&](Tick) { ++completed; };
        cache.receive(std::move(pkt), eq.now());
    }
    eq.run();
    EXPECT_EQ(completed, 4);
    EXPECT_EQ(mem.accesses, 1u); // one fill serves all four
    EXPECT_EQ(cache.stats().mshr_merges, 3u);
}

TEST(Cache, StalledReadCountsAsOneMiss)
{
    EventQueue eq;
    FixedLatencyMem mem(eq, 50000);
    auto cfg = testCacheConfig();
    cfg.mshrs = 1;
    Cache cache(eq, cfg, mem);

    // The second read finds the only MSHR busy, stalls, and is retried
    // when the first fill frees it: one stall, two misses, not three.
    int completed = 0;
    for (Addr addr : {Addr{0x1000}, Addr{0x2000}}) {
        auto pkt = MemPacketPtr(MemPacketPool::alloc());
        pkt->op = MemOp::Read;
        pkt->addr = addr;
        pkt->size = 32;
        pkt->onComplete = [&](Tick) { ++completed; };
        cache.receive(std::move(pkt), eq.now());
    }
    eq.run();
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(mem.accesses, 2u);
    EXPECT_EQ(cache.stats().mshr_stalls, 1u);
    EXPECT_EQ(cache.stats().read_misses, 2u);
    EXPECT_EQ(cache.stats().read_hits, 0u);
}

TEST(Cache, WriteThroughForwardsWrites)
{
    EventQueue eq;
    FixedLatencyMem mem(eq, 50000);
    auto cfg = testCacheConfig();
    cfg.role = CacheRole::L1d; // write-through, no write-allocate
    Cache cache(eq, cfg, mem);

    accessCache(eq, cache, MemOp::Write, 0x3000);
    EXPECT_EQ(mem.accesses, 1u); // write went downstream
    accessCache(eq, cache, MemOp::Read, 0x3000);
    EXPECT_EQ(cache.stats().read_misses, 1u); // no write-allocate
}

TEST(Cache, WriteBackHoldsDirtyDataUntilEviction)
{
    EventQueue eq;
    FixedLatencyMem mem(eq, 50000);
    auto cfg = testCacheConfig();
    cfg.role = CacheRole::L2; // write-back, write-allocate
    Cache cache(eq, cfg, mem);

    accessCache(eq, cache, MemOp::Write, 0x4000);
    EXPECT_EQ(mem.accesses, 0u); // dirty data held (write-validate)

    // Evict by touching far more distinct lines than the cache holds
    // (set indices are hashed, so overflow every set with margin).
    for (unsigned i = 1; i <= 512; ++i)
        accessCache(eq, cache, MemOp::Read, 0x4000 + i * 128 * 16);
    EXPECT_GE(cache.stats().writebacks, 1u);
}

TEST(Cache, AtomicsPassThroughWhenNotLocal)
{
    EventQueue eq;
    FixedLatencyMem mem(eq, 50000);
    auto cfg = testCacheConfig();
    cfg.role = CacheRole::L1d; // NDP L1: atomics go to memory-side L2
    Cache cache(eq, cfg, mem);
    accessCache(eq, cache, MemOp::Atomic, 0x5000);
    EXPECT_EQ(mem.accesses, 1u);

    auto cfg2 = testCacheConfig();
    cfg2.role = CacheRole::L2; // memory-side L2 executes atomics
    Cache l2(eq, cfg2, mem);
    accessCache(eq, l2, MemOp::Atomic, 0x5000); // miss -> fill, then done
    EXPECT_EQ(l2.stats().atomics, 1u);
    Tick t0 = eq.now();
    Tick done = accessCache(eq, l2, MemOp::Atomic, 0x5000); // now local
    EXPECT_LT(done - t0, 10000u);
}

// ---------------------------------------------------------------- NoC

TEST(Crossbar, BandwidthSerializationPerPort)
{
    EventQueue eq;
    Crossbar xbar(eq, /*ports=*/4, /*cycle=*/500); // hop: 4 cycles

    // Two 32 B sends to the same port of one plane serialize; to
    // different ports they do not. Route hashes 1 and 3 pick the same
    // plane.
    Tick a = xbar.send(0, 32, eq.now(), 1);
    Tick b = xbar.send(0, 32, eq.now(), 3);
    Tick c = xbar.send(1, 32, eq.now(), 2);
    EXPECT_EQ(a, 2000u + 500u);
    EXPECT_EQ(b, a + 500);
    EXPECT_EQ(c, a); // different port: no contention
    EXPECT_EQ(xbar.stats().flits, 3u);
}

TEST(Crossbar, PlanesMultiplyBandwidth)
{
    EventQueue eq;
    Crossbar xbar(eq, /*ports=*/2, /*cycle=*/500);
    // With 4 planes, sends hashed across planes rarely all collide.
    std::vector<Tick> times;
    for (unsigned i = 0; i < 8; ++i)
        times.push_back(xbar.send(0, 32, eq.now(), i * 977));
    Tick max_time = *std::max_element(times.begin(), times.end());
    // If it were a single plane, the last delivery would be >= 8 slots out.
    EXPECT_LT(max_time, 2000u + 8 * 500u);
}

TEST(Crossbar, DeviceNocRunsAtTheUnitClock)
{
    // A host write into an idle device books the request crossbar (hop
    // plus one slot per 32 B flit), an L2 slice lookup (7 unit cycles;
    // the write allocates, nothing reaches DRAM), then the response
    // crossbar (hop plus one slot for the 16 B completion). At a 1 GHz
    // unit clock a hop is 4 cycles, 4,000 ticks, and a flit slot one
    // cycle, 1,000 ticks.
    auto write_latency = [](std::uint32_t bytes) {
        EventQueue eq;
        SparseMemory mem;
        DeviceConfig cfg;
        cfg.num_units = 1;
        cfg.unit.period = 1000;
        CxlMemoryExpander dev(eq, mem, cfg);
        std::vector<std::uint8_t> data(bytes, 0xab);
        const Tick start = eq.now();
        Tick done = kTickMax;
        dev.cxlWrite(dev.paBase(), data.data(), bytes,
                     [&done](Tick t) { done = t; });
        eq.run();
        EXPECT_EQ(dev.requestNoc().stats().flits, bytes / 32);
        return done - start;
    };
    constexpr Tick kHop = 4000;
    constexpr Tick kFlit = 1000;
    constexpr Tick kL2Lookup = 7 * 1000;
    EXPECT_EQ(write_latency(32), kHop + kFlit + kL2Lookup + kHop + kFlit);
    EXPECT_EQ(write_latency(64), kHop + 2 * kFlit + kL2Lookup + kHop + kFlit);
}

// ---------------------------------------------------------------- CXL

TEST(CxlLink, LatencyAndSerialization)
{
    EventQueue eq;
    CxlLinkConfig cfg;
    CxlLink link(eq, cfg);

    // A read request is header-only.
    Tick arrive = link.down().send(link.readReqBytes());
    EXPECT_EQ(arrive, cfg.oneway_latency +
                          serializationTicks(16, kCxlLinkGbps));

    // Bandwidth: pushing 1 MiB of 64 B responses takes ~ 1 MiB / 64 GB/s.
    Tick last = 0;
    for (int i = 0; i < 16384; ++i)
        last = link.up().send(link.dataRespBytes(64));
    double seconds = ticksToSeconds(last - cfg.oneway_latency);
    double bytes = 16384.0 * 80; // 64 B payload + 16 B header
    EXPECT_NEAR(bytes / seconds / 1e9, 64.0, 2.0);
}

TEST(PacketFilter, MatchAndIsolation)
{
    PacketFilter filter;
    EXPECT_TRUE(filter.insert(0x10000, 0x20000, 7));
    EXPECT_TRUE(filter.insert(0x20000, 0x30000, 10));
    // Overlapping region rejected.
    EXPECT_FALSE(filter.insert(0x15000, 0x18000, 11));
    // Duplicate ASID rejected.
    EXPECT_FALSE(filter.insert(0x40000, 0x50000, 7));

    auto m = filter.match(0x10040);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->asid, 7);
    EXPECT_EQ(m->offset, 0x40u);
    EXPECT_FALSE(filter.match(0x30000).has_value()); // bound is exclusive
}

// ------------------------------------------------------ determinism

/** Digest of everything observable from one end-to-end kernel run. */
struct RunDigest
{
    Tick elapsed;
    std::uint64_t instructions;
    std::uint64_t uthreads;
    std::uint64_t dram_reads;
    std::uint64_t dram_writes;
    std::uint64_t dram_row_hits;
    std::uint64_t host_reads;
    std::uint64_t host_writes;
    std::uint64_t result_hash;

    bool
    operator==(const RunDigest &o) const
    {
        return elapsed == o.elapsed && instructions == o.instructions &&
               uthreads == o.uthreads && dram_reads == o.dram_reads &&
               dram_writes == o.dram_writes &&
               dram_row_hits == o.dram_row_hits &&
               host_reads == o.host_reads && host_writes == o.host_writes &&
               result_hash == o.result_hash;
    }
};

RunDigest
runVecAddOnce()
{
    const char *kernel = R"(
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

    constexpr unsigned kN = 8192;
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    System sys(cfg);
    auto &proc = sys.createProcess();
    auto rt = sys.createRuntime(proc);

    Addr a = proc.allocate(kN * 4), b = proc.allocate(kN * 4),
         c = proc.allocate(kN * 4);
    std::vector<float> va(kN), vb(kN);
    for (unsigned i = 0; i < kN; ++i) {
        va[i] = 0.5f * static_cast<float>(i);
        vb[i] = 4096.0f - static_cast<float>(i);
    }
    sys.writeVirtual(proc, a, va.data(), kN * 4);
    sys.writeVirtual(proc, b, vb.data(), kN * 4);

    KernelResources res;
    res.num_int_regs = 8;
    res.num_vector_regs = 4;
    std::int64_t kid = rt->registerKernel(kernel, res);

    Tick t0 = sys.eq().now();
    rt->launchKernelSync(LaunchDesc(kid, a, a + kN * 4).arg(b).arg(c));

    std::vector<float> vc(kN);
    sys.readVirtual(proc, c, vc.data(), kN * 4);
    std::uint64_t hash = 14695981039346656037ull;
    for (float f : vc) {
        std::uint32_t bits;
        std::memcpy(&bits, &f, 4);
        hash = (hash ^ bits) * 1099511628211ull;
    }

    auto unit_stats = sys.device().aggregateUnitStats();
    auto dram = sys.device().dram().totalStats();
    const auto &host = sys.host().stats();
    return RunDigest{sys.eq().now() - t0,
                     unit_stats.instructions,
                     unit_stats.uthreads_completed,
                     dram.reads,
                     dram.writes,
                     dram.row_hits,
                     host.reads,
                     host.writes,
                     hash};
}

TEST(Determinism, SameSeedSameStatsEndToEnd)
{
    // Two fresh systems running the identical workload must agree on every
    // stat and on the simulated clock, bit for bit: the event engine's
    // (tick, seq) FIFO tie-break is the only thing standing between this
    // and scheduling nondeterminism.
    RunDigest first = runVecAddOnce();
    RunDigest second = runVecAddOnce();
    EXPECT_TRUE(first == second);
    EXPECT_GT(first.instructions, 0u);
    EXPECT_GT(first.elapsed, 0u);
}

TEST(PacketFilter, StorageCost)
{
    PacketFilter filter(1024);
    // 18 B per entry, 1024 processes = 18 KiB (Section III-B).
    EXPECT_EQ(filter.storageBytes(), 18u * 1024u);
}

} // namespace
} // namespace m2ndp
