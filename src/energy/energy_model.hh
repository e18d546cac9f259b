/**
 * @file
 * Energy model: event counts x per-event energies plus static power x
 * runtime, in place of the paper's detailed power models (Section IV),
 * which this simulator does not reproduce. The
 * paper-level energy comparisons are dominated by DRAM and CXL-link
 * traffic plus runtime statics, which this model captures:
 *
 *  - CXL link: 8 pJ/bit (Dally, GTC'20 keynote [38]),
 *  - LPDDR5 ~15 pJ/B, DDR5 ~22 pJ/B, HBM2 ~7 pJ/B access energy,
 *  - SRAM accesses and FU ops with CACTI-class constants,
 *  - idle-host static power is charged during NDP (Section IV-A).
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/units.hh"

namespace m2ndp {

/** Per-event and static-power constants. */
struct EnergyParams
{
    double cxl_pj_per_bit = 8.0;
    double lpddr5_pj_per_byte = 15.0;
    double ddr5_pj_per_byte = 22.0;
    double hbm2_pj_per_byte = 7.0;
    double sram_l1_pj_per_access = 20.0;
    double sram_l2_pj_per_access = 50.0;
    double spad_pj_per_access = 10.0;
    double scalar_op_pj = 5.0;
    double vector_op_pj = 25.0;

    double ndp_device_static_w = 6.0;   ///< 32 NDP units + controller
    double passive_device_static_w = 3.0;
    double cpu_host_static_w = 120.0;   ///< 64-core host (idle during NDP)
    double gpu_host_static_w = 110.0;   ///< GPU idles during NDP [75]
    double cpu_ndp_static_w = 90.0;     ///< 2x EPYC 75F3 in-device
    double gpu_sm_dynamic_w_per_sm = 1.9;
    double ndp_unit_dynamic_w = 0.35;
};

/** Activity counters for one run (filled from component stats). */
struct EnergyActivity
{
    std::uint64_t dram_bytes = 0;
    std::uint64_t cxl_link_bytes = 0;
    std::uint64_t l1_accesses = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t spad_accesses = 0;
    std::uint64_t scalar_ops = 0;
    std::uint64_t vector_ops = 0;
    Tick runtime = 0;
    /** Active compute: SM-seconds or NDP-unit-seconds. */
    double compute_unit_seconds = 0.0;
};

/** Which platform the statics/dynamics belong to. */
enum class Platform : std::uint8_t {
    CpuHostPassiveCxl, ///< baseline: host CPU + passive expander
    GpuHostPassiveCxl,
    M2Ndp,             ///< idle host + NDP in the expander
    GpuNdp,
    CpuNdp,
};

/** Total energy in joules. */
struct EnergyBreakdown
{
    double dram_j = 0;
    double link_j = 0;
    double sram_j = 0;
    double compute_j = 0;
    double static_j = 0;

    double
    total() const
    {
        return dram_j + link_j + sram_j + compute_j + static_j;
    }
};

EnergyBreakdown computeEnergy(const EnergyParams &p, Platform platform,
                              const EnergyActivity &a,
                              const std::string &dram_kind = "LPDDR5");

} // namespace m2ndp
