/**
 * @file
 * Shared helpers for the figure-reproduction benches: table printing with
 * paper-reference columns, argument parsing, and standard system setup.
 *
 * Every bench prints the rows/series of one paper figure or table. The
 * `paper` column carries the value reported in the paper (when readable
 * from the text); `ours` is what this reproduction measures. Absolute
 * match is not expected (different substrate), the *shape* is.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "system/system.hh"

namespace m2ndp::bench {

/**
 * Command-line: --scale=<f> shrinks workload sizes; --full = paper size;
 * --threads=<n> is the parallelism knob — sweep drivers use it for
 * concurrent sweep points (sweepParallel below), multi-device drivers
 * pass it to SystemConfig::threads for the partitioned engine.
 * Omitted = auto (hardware concurrency / M2NDP_THREADS respectively).
 */
struct BenchArgs
{
    double scale = 1.0;
    bool full = false;
    unsigned threads = 0;

    /**
     * Parse the command line. A --scale that is not a positive number or
     * a --threads that is not a positive integer prints the usage and
     * exits with status 2: a zero scale would size workloads to nothing.
     */
    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs a;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strncmp(arg, "--scale=", 8) == 0) {
                char *end = nullptr;
                a.scale = std::strtod(arg + 8, &end);
                if (end == arg + 8 || *end != '\0' ||
                    !std::isfinite(a.scale) || a.scale <= 0.0)
                    usage(argv[0], arg);
            } else if (std::strcmp(arg, "--full") == 0) {
                a.full = true;
            } else if (std::strncmp(arg, "--threads=", 10) == 0) {
                char *end = nullptr;
                const char *num = arg + 10;
                unsigned long n = std::strtoul(num, &end, 10);
                if (*num < '1' || *num > '9' || *end != '\0' ||
                    n > std::numeric_limits<unsigned>::max())
                    usage(argv[0], arg);
                a.threads = static_cast<unsigned>(n);
            }
        }
        return a;
    }

    [[noreturn]] static void
    usage(const char *prog, const char *bad)
    {
        std::fprintf(stderr,
                     "%s: invalid argument '%s'\n"
                     "usage: %s [--scale=<f>, f > 0] [--full] "
                     "[--threads=<n>, n >= 1]\n",
                     prog, bad, prog);
        std::exit(2);
    }

    /**
     * @p base scaled by --scale, but at least 1: a tiny scale shrinks a
     * workload to its smallest size instead of to nothing.
     */
    std::uint64_t
    scaled(double base) const
    {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(base * scale));
    }

    /** Sweep-point concurrency: --threads, or one per core when 0. */
    unsigned
    sweepThreads() const
    {
        if (threads != 0)
            return threads;
        unsigned hw = std::thread::hardware_concurrency();
        return hw != 0 ? hw : 1;
    }
};

/**
 * Run @p n independent sweep points concurrently — a worker pool of
 * min(threads, n) threads pulling points off a shared counter — and
 * return the results in point order. Each point must build its own
 * System (simulations share no mutable state beyond the thread-safe
 * process-global pools), so every point is bit-identical to what the
 * serial sweep produces and only wall-clock changes.
 */
template <typename F>
auto
sweepParallel(std::size_t n, unsigned threads, F point)
    -> std::vector<decltype(point(std::size_t{0}))>
{
    using R = decltype(point(std::size_t{0}));
    std::vector<R> results(n);
    unsigned nt = static_cast<unsigned>(
        std::min<std::size_t>(threads == 0 ? 1 : threads, n));
    if (nt <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            results[i] = point(i);
        return results;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(nt);
    for (unsigned t = 0; t < nt; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= n)
                    return;
                results[i] = point(i);
            }
        });
    }
    for (auto &th : pool)
        th.join();
    return results;
}

inline void
header(const char *fig, const char *title)
{
    std::printf("\n=== %s: %s ===\n", fig, title);
}

inline void
row(const char *name, double ours, const char *unit, double paper = -1.0)
{
    if (paper >= 0.0)
        std::printf("  %-28s %10.3f %-8s (paper: %.3g)\n", name, ours, unit,
                    paper);
    else
        std::printf("  %-28s %10.3f %-8s\n", name, ours, unit);
}

inline void
note(const char *text)
{
    std::printf("  -- %s\n", text);
}

/** Geometric mean. */
inline double
gmean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** Standard single-device system per Table IV. */
inline SystemConfig
tableIvSystem(Tick ltu = 150 * kNs)
{
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(ltu);
    return cfg;
}

} // namespace m2ndp::bench
