/**
 * @file
 * Lightweight statistics: counters live as plain integers inside components
 * (hot path); this header provides the exact-sample histogram used to
 * report tail latencies. The bounded, allocation-free alternative is
 * LatencyHistogram (common/histogram.hh).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace m2ndp {

/**
 * Exact-sample histogram. The tail-latency experiments (Figs. 1b, 10b, 11a)
 * need true p95 values over 10 K-1 M samples, so we keep every sample and
 * sort lazily.
 */
class Histogram
{
  public:
    void
    add(double sample)
    {
        samples_.push_back(sample);
        sorted_ = false;
    }

    std::size_t count() const { return samples_.size(); }

    double mean() const;
    double min() const;
    double max() const;

    /** Exact percentile, p in [0, 100]. Empty histogram returns 0. */
    double percentile(double p) const;

    void
    clear()
    {
        samples_.clear();
        sorted_ = true;
    }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace m2ndp
