#include "cxl/link.hh"

#include "common/rng.hh"

namespace m2ndp {

Tick
CxlDirection::send(std::uint32_t bytes)
{
    Tick penalty = 0;
    if (faults_armed_) [[unlikely]]
        penalty = injector_.onMessage(bytes);
    Tick ser = serializationTicks(bytes, kCxlLinkGbps);
    // A link-layer replay (LRSM) blocks the direction until the flit
    // retransmits, so the penalty occupies the link: later messages queue
    // behind it and per-direction FIFO ordering is preserved. Protocol
    // correctness depends on this — e.g. the deferred M2func return read
    // must never overtake the launch write it follows.
    Tick start = link_.book(eq_, eq_.now(), ser + penalty);
    Tick done = start + ser + penalty;
    stats_.messages += 1;
    stats_.bytes += bytes;
    stats_.queueing += start - eq_.now();
    return done + cfg_.oneway_latency;
}

FaultConfig
CxlLink::deriveFault(FaultConfig fc, std::uint64_t salt)
{
    fc.seed = SplitMix64(fc.seed ^ salt).next();
    return fc;
}

void
CxlLink::forceLinkDown()
{
    forceLinkDown(down_.eq_.now());
}

FaultStats
CxlLink::faultStats() const
{
    const FaultStats &d = down_.injector().stats();
    const FaultStats &u = up_.injector().stats();
    FaultStats s;
    s.messages_checked = d.messages_checked + u.messages_checked;
    s.crc_replays = d.crc_replays + u.crc_replays;
    s.dropped_flits = d.dropped_flits + u.dropped_flits;
    s.replay_ticks = d.replay_ticks + u.replay_ticks;
    return s;
}

} // namespace m2ndp
