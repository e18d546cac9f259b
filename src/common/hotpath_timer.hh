/**
 * @file
 * Opt-in wall-clock attribution for the simulator's hot paths.
 *
 * The repository benchmark (`benchmark/run.py --trace 1`) enables these
 * counters around each measured span and reports the issue / fill /
 * functional wall-clock split from their deltas, so the hot-path balance
 * can be tracked without a profiler.
 *
 * Disabled (the default), a scope costs one predictable branch — cheap
 * enough to leave compiled into the hot paths. Timed scopes may nest
 * (the functional executor runs inside the issue stage); the reporter
 * subtracts inner from outer.
 *
 * The TSC / steady_clock reads below are host-side instrumentation that
 * never feeds simulated state, so same-seed bit-exactness is unaffected;
 * the benchmark's end-to-end numbers come from untraced runs.
 * ndp-lint: allow-file(nondeterminism)
 */

#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace m2ndp::hotpath {

/**
 * All counters are in timebase "ticks" (TSC on x86-64, steady_clock
 * nanoseconds elsewhere). Consumers report *ratios* of counter deltas
 * against nowTicks() deltas over the same region, so no frequency
 * calibration is needed and the unit never leaks into reports.
 */
struct Counters
{
    bool enabled = false;
    std::uint64_t issue = 0;      ///< NdpUnit::issueOne (incl. functional)
    std::uint64_t fill = 0;       ///< Cache::handleLineFill
    std::uint64_t functional = 0; ///< isa::step inside the issue stage
};

extern Counters g;

inline std::uint64_t
nowTicks()
{
#if defined(__x86_64__) || defined(_M_X64)
    // ~10 cycles vs ~25-70 ns for clock_gettime: cheap enough that the
    // instrumented pass stays representative of the uninstrumented one.
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

/** RAII scope accumulating into one counter when instrumentation is on. */
class Scope
{
  public:
    explicit Scope(std::uint64_t &sink)
        : sink_(g.enabled ? &sink : nullptr),
          t0_(sink_ != nullptr ? nowTicks() : 0)
    {
    }

    ~Scope()
    {
        if (sink_ != nullptr)
            *sink_ += nowTicks() - t0_;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::uint64_t *sink_;
    std::uint64_t t0_;
};

} // namespace m2ndp::hotpath
