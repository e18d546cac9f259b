#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace m2ndp {

namespace {
void
ensureSorted(std::vector<double> &samples, bool &sorted)
{
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
}
} // namespace

double
Histogram::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples_)
        sum += s;
    return sum / static_cast<double>(samples_.size());
}

double
Histogram::min() const
{
    ensureSorted(samples_, sorted_);
    return samples_.empty() ? 0.0 : samples_.front();
}

double
Histogram::max() const
{
    ensureSorted(samples_, sorted_);
    return samples_.empty() ? 0.0 : samples_.back();
}

double
Histogram::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    M2_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    ensureSorted(samples_, sorted_);
    // Nearest-rank with linear interpolation between adjacent samples.
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(rank));
    auto hi = static_cast<std::size_t>(std::ceil(rank));
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

} // namespace m2ndp
