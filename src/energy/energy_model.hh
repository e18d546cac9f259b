/**
 * @file
 * Energy model: event counts x per-event energies plus static power x
 * runtime, in place of the paper's detailed power models (Section IV),
 * which this simulator does not reproduce. The
 * paper-level energy comparisons are dominated by DRAM and CXL-link
 * traffic plus runtime statics, which this model captures:
 *
 *  - CXL link: 8 pJ/bit (Dally, GTC'20 keynote [38]),
 *  - LPDDR5 ~15 pJ/B access energy (the expander's media, Table IV),
 *  - SRAM accesses and FU ops with CACTI-class constants,
 *  - idle-host static power is charged during NDP (Section IV-A).
 *
 * The per-event energies and static powers are constants in
 * energy_model.cc.
 */

#pragma once

#include <cstdint>

#include "common/units.hh"

namespace m2ndp {

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

EnergyBreakdown computeEnergy(Platform platform, const EnergyActivity &a);

} // namespace m2ndp
