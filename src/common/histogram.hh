/**
 * @file
 * Deterministic fixed-bucket log2 latency histogram.
 *
 * The exact-sample `Histogram` in common/stats.hh stores every sample in
 * a vector and sorts lazily — fine for a few thousand bench samples, but
 * the open-loop traffic harness records one latency per request on the
 * hot completion path and must stay allocation-free. `LatencyHistogram`
 * is a fixed 2D bucket grid: an octave (floor(log2 v)) selects the row,
 * a linear sub-bucket within the octave selects the column, bounding the
 * relative quantization error at 1/kSubBuckets while `record()` is two
 * shifts, a mask and an increment on inline storage.
 *
 * Percentile extraction walks the cumulative counts and reports the
 * bucket's upper bound (clamped to the observed max), so percentiles are
 * deterministic, monotone in p, and never under-report a tail value —
 * the property the exact QoS goldens in tests/test_workloads.cc rely on.
 * Histograms merge by element-wise addition, which is how per-tenant
 * traffic results roll up into the aggregate distribution.
 */

#pragma once

#include <array>
#include <cstdint>

#include "common/bitutil.hh"

namespace m2ndp {

class LatencyHistogram
{
  public:
    /** Octaves: values up to 2^48 - 1 bucket exactly; larger ones clamp. */
    static constexpr unsigned kOctaves = 48;
    /** Linear sub-buckets per octave (max relative error 1/16). */
    static constexpr unsigned kSubBuckets = 16;
    static constexpr unsigned kBuckets = kOctaves * kSubBuckets;

    /** Record one sample. Allocation-free; safe on completion hot paths. */
    void
    record(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        ++count_;
        sum_ += v;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    /** Element-wise accumulate @p other into this histogram. */
    void
    merge(const LatencyHistogram &other)
    {
        if (other.count_ == 0)
            return;
        for (unsigned b = 0; b < kBuckets; ++b)
            buckets_[b] += other.buckets_[b];
        if (count_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
        count_ += other.count_;
        sum_ += other.sum_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ > 0
                   ? static_cast<double>(sum_) / static_cast<double>(count_)
                   : 0.0;
    }

    /**
     * Value at quantile @p p in [0, 1]: the upper bound of the first
     * bucket whose cumulative count reaches ceil(p * count), clamped to
     * the observed max. 0 when empty.
     */
    std::uint64_t
    percentile(double p) const
    {
        if (count_ == 0)
            return 0;
        if (p <= 0.0)
            return min_;
        // ceil(p * count) without float round-off at p = 1.
        auto target = static_cast<std::uint64_t>(
            p * static_cast<double>(count_));
        if (target < count_ &&
            static_cast<double>(target) <
                p * static_cast<double>(count_))
            ++target;
        if (target == 0)
            target = 1;
        std::uint64_t cum = 0;
        for (unsigned b = 0; b < kBuckets; ++b) {
            cum += buckets_[b];
            if (cum >= target) {
                std::uint64_t hi = bucketUpperBound(b);
                return hi < max_ ? hi : max_;
            }
        }
        return max_;
    }

    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p99() const { return percentile(0.99); }
    std::uint64_t p999() const { return percentile(0.999); }

    /** Raw bucket counts (for checksums and stat dumps). */
    const std::array<std::uint64_t, kBuckets> &buckets() const
    {
        return buckets_;
    }

    /** Bucket index a value lands in. */
    static constexpr unsigned
    bucketOf(std::uint64_t v)
    {
        // Values below kSubBuckets map 1:1 onto the first row's columns
        // (exact); from there each octave splits linearly kSubBuckets ways.
        if (v < kSubBuckets)
            return static_cast<unsigned>(v);
        unsigned oct = floorLog2(v);
        if (oct >= kOctaves)
            return kBuckets - 1;
        auto sub = static_cast<unsigned>(
            (v >> (oct - kSubBucketBits)) & (kSubBuckets - 1));
        return oct * kSubBuckets + sub;
    }

    /** Largest value mapping into bucket @p b (inclusive). */
    static constexpr std::uint64_t
    bucketUpperBound(unsigned b)
    {
        if (b < kSubBuckets)
            return b;
        unsigned oct = b / kSubBuckets;
        unsigned sub = b % kSubBuckets;
        std::uint64_t base = std::uint64_t{1} << oct;
        std::uint64_t step = base / kSubBuckets;
        return base + static_cast<std::uint64_t>(sub + 1) * step - 1;
    }

  private:
    static constexpr unsigned kSubBucketBits = 4;
    static_assert(1u << kSubBucketBits == kSubBuckets,
                  "sub-bucket count must be a power of two");

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace m2ndp
