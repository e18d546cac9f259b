/**
 * @file
 * Shared helpers for the evaluation workloads (Table V).
 *
 * Each workload provides:
 *  - setup(): deterministic data generation + placement in CXL memory,
 *  - runNdp(): launch real NDP kernels through the Table II API and
 *    return the measured (simulated) runtime,
 *  - verify(): functional correctness against a host-side reference,
 *  - gpuDesc()/cpu estimates: abstract descriptors for the baseline
 *    interval models, which stand in for the paper's cycle-level CPU
 *    and GPU simulators (see host/cpu_model.hh, host/gpu_model.hh).
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/units.hh"
#include "host/gpu_model.hh"
#include "host/runtime.hh"
#include "system/system.hh"

namespace m2ndp::workloads {

/** Build a launch descriptor from 64-bit arguments (Table II payload). */
inline LaunchDesc
makeLaunch(std::int64_t kernel, Addr pool_base, Addr pool_bound,
           std::initializer_list<std::uint64_t> vals)
{
    LaunchDesc d(kernel, pool_base, pool_bound);
    for (std::uint64_t v : vals)
        d.arg(v);
    return d;
}

/** Upload a typed array into CXL memory (functional, setup phase). */
template <typename T>
Addr
uploadArray(System &sys, ProcessAddressSpace &proc, const std::vector<T> &v,
            Placement placement = Placement::Localized,
            unsigned home_device = 0)
{
    Addr va = proc.allocate(v.size() * sizeof(T) + 64, placement,
                            home_device);
    sys.writeVirtual(proc, va, v.data(), v.size() * sizeof(T));
    return va;
}

/** Download a typed array from CXL memory. */
template <typename T>
std::vector<T>
downloadArray(System &sys, const ProcessAddressSpace &proc, Addr va,
              std::size_t count)
{
    std::vector<T> out(count);
    sys.readVirtual(proc, va, out.data(), count * sizeof(T));
    return out;
}

/** Result of one measured workload run. */
struct RunResult
{
    Tick runtime = 0;
    bool verified = false;
    double dram_bytes = 0;
    double achieved_gbps = 0;
};

} // namespace m2ndp::workloads
