/**
 * @file
 * Tests for common utilities: logging, units, bit utilities, RNG, stats,
 * the event queue, resource reservations, and clock domains.
 */

#include <gtest/gtest.h>

#include "common/bitutil.hh"
#include "common/histogram.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "sim/event_queue.hh"
#include "sim/reservation.hh"

namespace m2ndp {
namespace {

TEST(Units, TickConversions)
{
    EXPECT_EQ(nanoseconds(150), 150000u);
    EXPECT_EQ(microseconds(1.5), 1500000u);
    EXPECT_EQ(periodFromGHz(2.0), 500u);
    EXPECT_EQ(periodFromMHz(1695.0), 589u); // truncated
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSec), 1.0);
}

TEST(Units, SerializationTicks)
{
    // 64 B at 64 GB/s = 1 ns.
    EXPECT_EQ(serializationTicks(64, 64.0), 1000u);
    // 256 B at 64 GB/s = 4 ns.
    EXPECT_EQ(serializationTicks(256, 64.0), 4000u);
    // Rounds up.
    EXPECT_EQ(serializationTicks(1, 64.0), 16u);
}

TEST(BitUtil, PowersAndLogs)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
}

TEST(BitUtil, AlignAndBits)
{
    EXPECT_EQ(alignDown(0x12345, 0x1000), 0x12000u);
    EXPECT_EQ(alignUp(0x12345, 0x1000), 0x13000u);
    EXPECT_EQ(alignUp(0x12000, 0x1000), 0x12000u);
    EXPECT_EQ(bits(0xABCD, 15, 8), 0xABu);
    EXPECT_EQ(signExtend(0xFFF, 12), -1);
    EXPECT_EQ(signExtend(0x7FF, 12), 0x7FF);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng c(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = c.nextBounded(10);
        EXPECT_LT(v, 10u);
        double d = c.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ZipfianSkew)
{
    ZipfianGenerator zipf(1000, 0.99, 123);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.next()];
    // Rank 0 must be much hotter than rank 500 under theta=0.99.
    EXPECT_GT(counts[0], counts[500] * 10);
    // All samples in range (guaranteed by construction, smoke-check top).
    EXPECT_GT(counts[0], 0);
}

TEST(Stats, HistogramPercentiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.percentile(95), 95.05, 0.01);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
}

TEST(LatencyHistogram, ExactBelowSubBucketCount)
{
    // Values below kSubBuckets map 1:1 onto buckets, so small latencies
    // are recorded exactly.
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketOf(v), v);
        EXPECT_EQ(LatencyHistogram::bucketUpperBound(
                      LatencyHistogram::bucketOf(v)),
                  v);
        h.record(v);
    }
    EXPECT_EQ(h.count(), LatencyHistogram::kSubBuckets);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 15u);
    EXPECT_EQ(h.p50(), 7u); // ceil(.5*16)=8th sample is value 7, exact
}

TEST(LatencyHistogram, BucketBoundsContainValue)
{
    // Every value must land in a bucket whose upper bound is >= the value
    // and within 1/kSubBuckets relative error of it.
    for (std::uint64_t v : {1ull, 15ull, 16ull, 17ull, 31ull, 32ull,
                            1000ull, 4096ull, 1234567ull,
                            (1ull << 47) + 12345ull}) {
        unsigned b = LatencyHistogram::bucketOf(v);
        std::uint64_t hi = LatencyHistogram::bucketUpperBound(b);
        EXPECT_GE(hi, v) << "value " << v;
        EXPECT_LE(static_cast<double>(hi - v),
                  static_cast<double>(v) / LatencyHistogram::kSubBuckets +
                      1.0)
            << "value " << v;
        if (b + 1 < LatencyHistogram::kBuckets) {
            // Bucket boundaries are tight: hi + 1 falls in a later bucket.
            EXPECT_GT(LatencyHistogram::bucketOf(hi + 1), b);
        }
    }
    // Values past the last octave clamp into the final bucket.
    EXPECT_EQ(LatencyHistogram::bucketOf(~0ull),
              LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, PercentilesMonotoneAndTailSafe)
{
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.sum(), 500500u);
    // Percentiles never under-report (bucket upper bound) and never
    // exceed the observed max.
    std::uint64_t prev = 0;
    for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        std::uint64_t v = h.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        EXPECT_LE(v, h.max()) << "p=" << p;
        prev = v;
    }
    // Upper-bound reporting: p50 of 1..1000 is >= 500 and within one
    // sub-bucket step (1/16) of it.
    EXPECT_GE(h.p50(), 500u);
    EXPECT_LE(h.p50(), 500u + 500u / LatencyHistogram::kSubBuckets + 1);
    EXPECT_EQ(h.percentile(1.0), 1000u);
    EXPECT_EQ(h.percentile(0.0), 1u);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording)
{
    LatencyHistogram a, b, both;
    for (std::uint64_t v = 1; v <= 100; ++v) {
        a.record(v * 3);
        both.record(v * 3);
    }
    for (std::uint64_t v = 1; v <= 50; ++v) {
        b.record(v * 1000);
        both.record(v * 1000);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    EXPECT_EQ(a.buckets(), both.buckets());
    EXPECT_EQ(a.p99(), both.p99());
    // Merging an empty histogram is a no-op.
    LatencyHistogram empty;
    auto before = a.buckets();
    a.merge(empty);
    EXPECT_EQ(a.buckets(), before);
    EXPECT_EQ(empty.percentile(0.5), 0u);
}

TEST(Log, PanicThrows)
{
    EXPECT_THROW(M2_PANIC("boom"), std::logic_error);
    EXPECT_THROW(M2_FATAL("bad config"), std::runtime_error);
    EXPECT_THROW(M2_ASSERT(false, "nope"), std::logic_error);
    EXPECT_NO_THROW(M2_ASSERT(true, "fine"));
}

TEST(EventQueue, OrderingAndFifoTieBreak)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(50, [&] { order.push_back(0); });
    eq.schedule(100, [&] { order.push_back(2); }); // same tick: FIFO
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        eq.scheduleAfter(5, [&] { fired = 2; });
        fired = 1;
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, RunWithLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { fired = 1; });
    eq.schedule(100, [&] { fired = 2; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), std::logic_error);
}

TEST(Reservation, NextFreeBookingRecordsLookahead)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    Reservation port;

    // In order: a free resource starts the booking at its requested tick.
    EXPECT_EQ(port.book(eq, 100, 10), 100u);
    EXPECT_EQ(eq.maxBookingLookahead(), 0u);
    // Queued: a second booking for the same tick waits for the watermark.
    EXPECT_EQ(port.book(eq, 100, 10), 110u);
    EXPECT_EQ(eq.maxBookingLookahead(), 10u);
    // Future: a booking past the watermark starts at its own tick and
    // raises the lookahead to exactly start - now.
    EXPECT_EQ(port.book(eq, 400, 10), 400u);
    EXPECT_EQ(eq.maxBookingLookahead(), 300u);

    // A booking that starts in the bounded past (delivery slack) does
    // not wrap the unsigned difference, and the maximum never falls.
    eq.schedule(1000, [] {});
    eq.run();
    EXPECT_EQ(port.book(eq, 990, 5), 990u);
    EXPECT_EQ(port.book(eq, 1000, 5), 1000u);
    EXPECT_EQ(eq.maxBookingLookahead(), 300u);
}

} // namespace
} // namespace m2ndp
