#include "mem/packet.hh"

#include "common/annotations.hh"

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace m2ndp {

namespace {

constexpr std::size_t kSlabPackets = 256;

/**
 * Slabs come from a process-lifetime arena shared by every executor
 * thread, so a packet carved on one thread stays valid if it is parked
 * by a device and only released during teardown on another (worker
 * threads exit before the devices that hold their packets). Nodes
 * recycle through a thread-local freelist: the steady-state
 * alloc/release cycle is lock-free and allocation-free; the arena mutex
 * is only taken when a thread carves a fresh slab.
 */
struct Arena
{
    std::mutex mu;
    std::vector<std::unique_ptr<MemPacket[]>> slabs;
};

Arena &
arena()
{
    static Arena a;
    return a;
}

struct LocalCache
{
    MemPacket *free_head = nullptr;
    std::size_t live = 0;
    /** Monotonic acquisitions (packets_per_miss accounting). */
    std::uint64_t allocs = 0;
};

thread_local LocalCache t_cache;

void
grow(LocalCache &c)
{
    auto slab = std::make_unique<MemPacket[]>(kSlabPackets);
    MemPacket *base = slab.get();
    for (std::size_t i = 0; i < kSlabPackets; ++i) {
        base[i].link = c.free_head;
        c.free_head = &base[i];
    }
    std::lock_guard<std::mutex> lk(arena().mu);
    arena().slabs.push_back(std::move(slab));
}

} // namespace

M2NDP_HOT_PATH
MemPacket *
MemPacketPool::alloc()
{
    LocalCache &c = t_cache;
    if (c.free_head == nullptr)
        grow(c);
    MemPacket *pkt = c.free_head;
    c.free_head = pkt->link;
    pkt->link = nullptr;
    ++c.allocs;
    ++c.live;
    return pkt;
}

M2NDP_HOT_PATH
void
MemPacketPool::release(MemPacket *pkt)
{
    if (pkt == nullptr)
        return;
    // Drop any held captures before the node goes back on the free list.
    // Hop frames are POD (no captures); clearing the count suffices.
    pkt->onComplete.reset();
    pkt->num_hops = 0;
    pkt->wait_sector = 0;
    LocalCache &c = t_cache;
    pkt->link = c.free_head;
    c.free_head = pkt;
    --c.live;
}

std::size_t
MemPacketPool::outstanding()
{
    return t_cache.live;
}

std::uint64_t
MemPacketPool::allocCount()
{
    return t_cache.allocs;
}

} // namespace m2ndp
