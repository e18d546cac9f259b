#include "cxl/packet_filter.hh"

#include "common/log.hh"

namespace m2ndp {

bool
PacketFilter::insert(Addr base, Addr bound, Asid asid)
{
    if (entries_.size() >= max_entries_)
        return false;
    M2_ASSERT(base < bound, "empty M2func region");
    for (const auto &e : entries_) {
        bool overlap = base < e.bound && e.base < bound;
        if (overlap || e.asid == asid)
            return false;
    }
    entries_.push_back(PacketFilterEntry{base, bound, asid});
    return true;
}

std::optional<PacketFilterMatch>
PacketFilter::match(Addr addr) const
{
    ++lookups_;
    for (const auto &e : entries_) {
        if (addr >= e.base && addr < e.bound) {
            ++matches_;
            return PacketFilterMatch{e.asid, addr - e.base};
        }
    }
    return std::nullopt;
}

} // namespace m2ndp
