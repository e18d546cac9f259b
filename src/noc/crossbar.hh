/**
 * @file
 * On-chip crossbar interconnect.
 *
 * The CXL-M2NDP controller uses four parallel 32x32 crossbars with 32 B
 * flits (Table IV) connecting NDP units to memory-side L2 slices. We model
 * per-destination-port serialization on each crossbar plane plus a fixed
 * hop latency; planes are selected by address hash. On-chip bandwidth is
 * deliberately abundant relative to DRAM (Section III-E).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "sim/event_queue.hh"
#include "sim/reservation.hh"

namespace m2ndp {

/** Table IV NoC constants. */
inline constexpr unsigned kCrossbarPlanes = 4; ///< parallel crossbars
inline constexpr unsigned kFlitBytes = 32;     ///< serialization granularity
/** Traversal latency in crossbar cycles. */
inline constexpr Tick kCrossbarHopCycles = 4;

/** Traffic statistics. */
struct CrossbarStats
{
    std::uint64_t flits = 0;
    std::uint64_t bytes = 0;
    Tick total_queueing = 0; ///< accumulated arbitration delay
};

/**
 * Bandwidth-arbitrated crossbar. Callers ask for a delivery time; the
 * crossbar books flit slots on the (plane, dst) output port.
 */
class Crossbar
{
  public:
    /**
     * @p ports destination ports per plane; @p cycle the flit slot
     * duration (the device's NDP-unit clock period), so a hop takes
     * kCrossbarHopCycles cycles.
     */
    Crossbar(EventQueue &eq, unsigned ports, Tick cycle);

    /**
     * Book transfer of @p bytes to @p dst_port, selecting a plane by
     * @p route_hash. @return the tick the last flit arrives.
     *
     * @p at is the logical injection tick (>= now): fused completion
     * paths book the hop from the producing stage's completion tick
     * instead of scheduling an event just to reach "now == at" first —
     * arbitration conflicts are still modeled through each port's
     * Reservation, with no event.
     */
    Tick send(unsigned dst_port, std::uint32_t bytes, Tick at,
              std::uint64_t route_hash);

    const CrossbarStats &stats() const { return stats_; }

  private:
    EventQueue &eq_;
    unsigned ports_per_plane_;
    Tick cycle_;
    std::vector<Reservation> ports_; ///< [plane * ports + dst]
    CrossbarStats stats_;
};

} // namespace m2ndp
