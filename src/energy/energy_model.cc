#include "energy/energy_model.hh"

namespace m2ndp {

namespace {

// Per-event energies (pJ).
constexpr double kCxlPjPerBit = 8.0;
constexpr double kLpddr5PjPerByte = 15.0;
constexpr double kSramL1PjPerAccess = 20.0;
constexpr double kSramL2PjPerAccess = 50.0;
constexpr double kSpadPjPerAccess = 10.0;
constexpr double kScalarOpPj = 5.0;
constexpr double kVectorOpPj = 25.0;

// Static and per-unit dynamic power (W).
constexpr double kNdpDeviceStaticW = 6.0;     ///< 32 NDP units + controller
constexpr double kPassiveDeviceStaticW = 3.0;
constexpr double kCpuHostStaticW = 120.0;     ///< 64-core host (idle during NDP)
constexpr double kGpuHostStaticW = 110.0;     ///< GPU idles during NDP [75]
constexpr double kCpuNdpStaticW = 90.0;       ///< 2x EPYC 75F3 in-device
constexpr double kGpuSmDynamicWPerSm = 1.9;
constexpr double kNdpUnitDynamicW = 0.35;

} // namespace

EnergyBreakdown
computeEnergy(Platform platform, const EnergyActivity &a)
{
    EnergyBreakdown e;

    e.dram_j = a.dram_bytes * kLpddr5PjPerByte * 1e-12;
    e.link_j = a.cxl_link_bytes * 8.0 * kCxlPjPerBit * 1e-12;
    e.sram_j = (a.l1_accesses * kSramL1PjPerAccess +
                a.l2_accesses * kSramL2PjPerAccess +
                a.spad_accesses * kSpadPjPerAccess) *
               1e-12;
    e.compute_j = (a.scalar_ops * kScalarOpPj +
                   a.vector_ops * kVectorOpPj) *
                  1e-12;

    double seconds = ticksToSeconds(a.runtime);
    double static_w = 0.0;
    switch (platform) {
      case Platform::CpuHostPassiveCxl:
        static_w = kCpuHostStaticW + kPassiveDeviceStaticW;
        break;
      case Platform::GpuHostPassiveCxl:
        static_w = kGpuHostStaticW + kPassiveDeviceStaticW;
        break;
      case Platform::M2Ndp:
        // Idle host is included during NDP (Section IV-A).
        static_w = kGpuHostStaticW + kNdpDeviceStaticW;
        break;
      case Platform::GpuNdp:
        static_w = kGpuHostStaticW + kPassiveDeviceStaticW +
                   kGpuSmDynamicWPerSm; // SM statics folded below
        break;
      case Platform::CpuNdp:
        static_w = kGpuHostStaticW + kCpuNdpStaticW;
        break;
    }
    e.static_j = static_w * seconds;

    // Active-compute dynamic power (SM-seconds / unit-seconds).
    double unit_w = platform == Platform::GpuNdp ||
                            platform == Platform::GpuHostPassiveCxl
                        ? kGpuSmDynamicWPerSm
                        : kNdpUnitDynamicW;
    e.compute_j += a.compute_unit_seconds * unit_w;
    return e;
}

} // namespace m2ndp
