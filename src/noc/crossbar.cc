#include "noc/crossbar.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace m2ndp {

Crossbar::Crossbar(EventQueue &eq, CrossbarConfig cfg)
    : eq_(eq), cfg_(cfg),
      ports_(static_cast<std::size_t>(cfg.planes) * cfg.ports)
{
    M2_ASSERT(cfg_.planes > 0 && cfg_.ports > 0, "empty crossbar");
}

Tick
Crossbar::send(unsigned dst_port, std::uint32_t bytes, Tick at,
               std::uint64_t route_hash)
{
    M2_ASSERT(dst_port < cfg_.ports, "bad crossbar port ", dst_port);
    M2_ASSERT(at + eq_.deliverySlack() >= eq_.now(),
              "crossbar injection in the past");
    unsigned plane = static_cast<unsigned>(mixHash64(route_hash) % cfg_.planes);
    Reservation &port =
        ports_[static_cast<std::size_t>(plane) * cfg_.ports + dst_port];

    unsigned flits = (bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
    flits = std::max(flits, 1u);

    Tick ready = at + cfg_.hop_latency;
    Tick occupancy = static_cast<Tick>(flits) * cfg_.cycle;
    Tick start = port.book(eq_, ready, occupancy);
    Tick done = start + occupancy;

    stats_.flits += flits;
    stats_.bytes += bytes;
    stats_.total_queueing += start - ready;
    return done;
}

} // namespace m2ndp
