#include "noc/crossbar.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace m2ndp {

Crossbar::Crossbar(EventQueue &eq, unsigned ports, Tick cycle)
    : eq_(eq), ports_per_plane_(ports), cycle_(cycle),
      ports_(static_cast<std::size_t>(kCrossbarPlanes) * ports)
{
    M2_ASSERT(ports > 0 && cycle > 0, "empty or unclocked crossbar");
}

Tick
Crossbar::send(unsigned dst_port, std::uint32_t bytes, Tick at,
               std::uint64_t route_hash)
{
    M2_ASSERT(dst_port < ports_per_plane_, "bad crossbar port ", dst_port);
    M2_ASSERT(at + eq_.deliverySlack() >= eq_.now(),
              "crossbar injection in the past");
    unsigned plane =
        static_cast<unsigned>(mixHash64(route_hash) % kCrossbarPlanes);
    Reservation &port =
        ports_[static_cast<std::size_t>(plane) * ports_per_plane_ + dst_port];

    unsigned flits = (bytes + kFlitBytes - 1) / kFlitBytes;
    flits = std::max(flits, 1u);

    Tick ready = at + kCrossbarHopCycles * cycle_;
    Tick occupancy = static_cast<Tick>(flits) * cycle_;
    Tick start = port.book(eq_, ready, occupancy);
    Tick done = start + occupancy;

    stats_.flits += flits;
    stats_.bytes += bytes;
    stats_.total_queueing += start - ready;
    return done;
}

} // namespace m2ndp
