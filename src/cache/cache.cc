#include "cache/cache.hh"

#include "common/annotations.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/hotpath_timer.hh"
#include "common/log.hh"

namespace m2ndp {

Cache::Cache(EventQueue &eq, CacheConfig cfg, MemPort &downstream)
    : eq_(eq), cfg_(std::move(cfg)), downstream_(downstream)
{
    M2_ASSERT(cfg_.line_bytes % cfg_.sector_bytes == 0,
              "line must be a whole number of sectors");
    M2_ASSERT(isPowerOfTwo(cfg_.line_bytes) &&
                  isPowerOfTwo(cfg_.sector_bytes),
              "line/sector sizes must be powers of two (mask math)");
    sector_shift_ = floorLog2(cfg_.sector_bytes);
    M2_ASSERT(cfg_.size % (static_cast<std::uint64_t>(cfg_.assoc) *
                           cfg_.line_bytes) == 0,
              "cache size not divisible into sets");
    const std::uint64_t num_sets =
        cfg_.size / (static_cast<std::uint64_t>(cfg_.assoc) *
                     cfg_.line_bytes);
    M2_ASSERT(isPowerOfTwo(num_sets),
              "cache set count must be a power of two (mask indexing)");
    set_mask_ = num_sets - 1;
    lines_.assign(num_sets * cfg_.assoc, Line{});
    tags_.assign(num_sets * cfg_.assoc, kNoTag);
    lrus_.assign(num_sets * cfg_.assoc, 0);

    M2_ASSERT(cfg_.line_bytes / cfg_.sector_bytes <= 64,
              "sector_valid / sectors_pending are 64-bit masks");

    // MSHR node pool: at most one line entry per outstanding sector fill
    // (bounded by cfg_.mshrs), plus one spare so a waiter completion that
    // re-enters the cache while the freed node is mid-release still finds
    // a node. The index table is power-of-two capacity at <= 50% load so
    // linear probes stay short.
    mshr_nodes_ = std::vector<Mshr>(cfg_.mshrs + 1);
    for (Mshr &m : mshr_nodes_) {
        m.free_next = mshr_free_;
        mshr_free_ = &m;
    }
    std::uint64_t cap = 1;
    while (cap < 2 * static_cast<std::uint64_t>(mshr_nodes_.size()))
        cap <<= 1;
    mshr_index_.assign(cap, nullptr);
    mshr_mask_ = cap - 1;
}

Cache::~Cache()
{
    auto release_all = [](PacketFifo &q) {
        while (!q.empty())
            MemPacketPool::release(q.pop());
    };
    for (Mshr *m : mshr_index_) {
        if (m != nullptr)
            release_all(m->waiters);
    }
    release_all(stalled_);
}

M2NDP_HOT_PATH
std::uint64_t
Cache::setIndex(Addr line_addr) const
{
    // Hash the set index so power-of-two strides do not alias into one set.
    std::uint64_t h = mixHash64(line_addr / cfg_.line_bytes);
    return h & set_mask_;
}

M2NDP_HOT_PATH
Cache::Line *
Cache::findLine(Addr line_addr)
{
    const std::size_t base = setIndex(line_addr) * cfg_.assoc;
    const Addr *tags = tags_.data() + base;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (tags[w] == line_addr)
            return &lines_[base + w];
    }
    return nullptr;
}

M2NDP_HOT_PATH
Cache::Line &
Cache::allocLine(Addr line_addr, Tick now)
{
    // Victim pick over the compact tag/LRU arrays: an invalid way wins
    // outright, else the minimum LRU stamp. 16 ways touch 4 compact
    // cache lines (2 of tags, 2 of LRU stamps).
    const std::size_t base = setIndex(line_addr) * cfg_.assoc;
    unsigned victim_way = 0;
    std::uint64_t victim_lru = ~std::uint64_t(0);
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (tags_[base + w] == kNoTag) {
            victim_way = w;
            break;
        }
        if (lrus_[base + w] < victim_lru) {
            victim_lru = lrus_[base + w];
            victim_way = w;
        }
    }
    const std::size_t victim_idx = base + victim_way;
    Line *victim = &lines_[victim_idx];
    if (victim->dirty) {
        // Write back all dirty sectors (modeled as one downstream write per
        // valid sector; posted, no completion dependence).
        ++stats_.writebacks;
        unsigned sectors = cfg_.line_bytes / cfg_.sector_bytes;
        for (unsigned s = 0; s < sectors; ++s) {
            if (victim->sector_valid & (1ull << s)) {
                sendDownstream(MemOp::Write,
                               tags_[victim_idx] + static_cast<Addr>(s) *
                                                       cfg_.sector_bytes,
                               cfg_.sector_bytes, now, {});
            }
        }
    }
    victim->dirty = false;
    victim->sector_valid = 0;
    tags_[victim_idx] = line_addr;
    touch(*victim);
    return *victim;
}

// --------------------------------------------------------------------------
// Line-keyed MSHRs: fixed node pool + open-addressing pointer index
// (linear probing, backward-shift deletion). Nodes never move, so fill
// callbacks capture their Mshr* and fills do no hash probe at all.
// --------------------------------------------------------------------------

M2NDP_HOT_PATH
std::size_t
Cache::mshrSlot(Addr line) const
{
    return static_cast<std::size_t>(mixHash64(line) & mshr_mask_);
}

M2NDP_HOT_PATH
Cache::Mshr *
Cache::mshrFind(Addr line)
{
    std::size_t i = mshrSlot(line);
    while (mshr_index_[i] != nullptr) {
        if (mshr_index_[i]->line == line)
            return mshr_index_[i];
        i = (i + 1) & mshr_mask_;
    }
    return nullptr;
}

M2NDP_HOT_PATH
Cache::Mshr *
Cache::mshrInsert(Addr line)
{
    M2_ASSERT(mshr_free_ != nullptr, "MSHR node pool exhausted");
    Mshr *m = mshr_free_;
    mshr_free_ = m->free_next;
    m->free_next = nullptr;
    m->line = line;
    m->sectors_pending = 0;
    m->way = kNoWay;
    std::size_t i = mshrSlot(line);
    while (mshr_index_[i] != nullptr)
        i = (i + 1) & mshr_mask_;
    mshr_index_[i] = m;
    return m;
}

M2NDP_HOT_PATH
void
Cache::mshrErase(Mshr *m)
{
    // Locate the index slot holding this node (short probe from home).
    std::size_t hole = mshrSlot(m->line);
    while (mshr_index_[hole] != m) {
        M2_ASSERT(mshr_index_[hole] != nullptr, "MSHR node not indexed");
        hole = (hole + 1) & mshr_mask_;
    }
    mshr_index_[hole] = nullptr;
    // Backward-shift deletion keeps probe chains intact without
    // tombstones: pull back any entry whose probe path crossed the hole.
    std::size_t j = hole;
    while (true) {
        j = (j + 1) & mshr_mask_;
        if (mshr_index_[j] == nullptr)
            break;
        std::size_t home = mshrSlot(mshr_index_[j]->line);
        // Move iff the hole lies on the probe path from home to j.
        if (((hole - home) & mshr_mask_) < ((j - home) & mshr_mask_)) {
            mshr_index_[hole] = mshr_index_[j];
            mshr_index_[j] = nullptr;
            hole = j;
        }
    }
    m->free_next = mshr_free_;
    mshr_free_ = m;
}

M2NDP_HOT_PATH
void
Cache::sendDownstream(MemOp op, Addr addr, std::uint32_t size, Tick at,
                      TickCallback cb)
{
    stats_.bytes_downstream += size;
    downstream_.receive(makePacket(op, addr, size, std::move(cb)), at);
}

M2NDP_HOT_PATH
void
Cache::receive(MemPacketPtr pkt, Tick at)
{
    M2_ASSERT(at + eq_.deliverySlack() >= eq_.now(),
              "cache delivery in the past");
    // Serialize lookups through the port, then charge the lookup latency.
    // The lookup itself runs now (fused): its effects carry the logical
    // lookup tick, so no event is needed to make sim-time catch up first.
    Tick start = port_.book(eq_, at, cfg_.port_cycle);
    lookupAt(std::move(pkt), start + cfg_.latency);
}

M2NDP_HOT_PATH
void
Cache::lookupAt(MemPacketPtr pkt, Tick done_tick, bool retry)
{
    const Tick now = done_tick;
    const Addr line_addr = lineAddr(pkt->addr);
    const Addr sector_addr = sectorAddr(pkt->addr);
    const unsigned sector = sectorIndex(pkt->addr);
    Line *line = findLine(line_addr);
    const bool sector_hit =
        line != nullptr && (line->sector_valid & (1ull << sector));

    if (pkt->op == MemOp::Atomic && !cfg_.atomics_local) {
        // Atomics execute at the memory-side L2; the original packet
        // passes straight through — the port below pushes the
        // response-crossbar hop frame, so no carrier wrap is needed.
        stats_.bytes_downstream += pkt->size;
        downstream_.receive(std::move(pkt), now);
        return;
    }

    switch (pkt->op) {
      case MemOp::Atomic:
        if (!retry)
            ++stats_.atomics;
        [[fallthrough]];
      case MemOp::Read: {
        if (pkt->op == MemOp::Read && !retry) {
            sector_hit ? ++stats_.read_hits : ++stats_.read_misses;
        }
        if (sector_hit) {
            touch(*line);
            if (pkt->op == MemOp::Atomic)
                line->dirty = true;
            pkt->complete(now);
            return;
        }
        // Miss: merge into (or extend) the line's MSHR. Waiters for every
        // sector of the line share one chain, each stamped with its
        // sector index.
        Mshr *m = mshrFind(line_addr);
        const std::uint64_t sbit = std::uint64_t(1) << sector;
        if (m != nullptr && (m->sectors_pending & sbit) != 0) {
            // The sector's fill is already in flight: pure merge.
            ++stats_.mshr_merges;
            pkt->wait_sector = static_cast<std::uint8_t>(sector);
            m->waiters.push(pkt.release());
            return;
        }
        if (mshr_count_ >= cfg_.mshrs) {
            ++stats_.mshr_stalls;
            stalled_.push(pkt.release());
            return;
        }
        if (m == nullptr)
            m = mshrInsert(line_addr);
        m->sectors_pending |= sbit;
        ++mshr_count_;
        ++stats_.miss_forwards;
        // Single-packet miss path: the first miss is never parked — the
        // ORIGINAL packet rides downstream as the sector fill request.
        // Re-stamp it to the fill granule and push the fill frame
        // carrying the stable node pointer: no carrier packet, no wrapped
        // callback, and no hash probe on the fill path. The whole request path below is
        // synchronous, so the pool alloc-count delta measures exactly
        // the packets this miss acquired (the rider counts as one).
        const bool was_atomic = pkt->op == MemOp::Atomic;
        const std::uint64_t allocs_before = MemPacketPool::allocCount();
        pkt->op = MemOp::Read;
        pkt->addr = sector_addr;
        pkt->size = cfg_.sector_bytes;
        pkt->pushHop(&Cache::fillHop, this,
                     reinterpret_cast<std::uint64_t>(m),
                     sector | (was_atomic ? kHopWasAtomic : 0u));
        stats_.bytes_downstream += cfg_.sector_bytes;
        downstream_.receive(std::move(pkt), now);
        stats_.miss_path_packets +=
            1 + (MemPacketPool::allocCount() - allocs_before);
        return;
      }
      case MemOp::Write: {
        bool forward = false;
        if (line != nullptr && sector_hit) {
            ++stats_.write_hits;
            touch(*line);
            if (cfg_.write_through)
                forward = true;
            else
                line->dirty = true;
        } else if (!cfg_.write_allocate || cfg_.write_through) {
            // No-allocate: forward the write downstream.
            ++stats_.write_misses;
            forward = true;
        } else {
            // Write-allocate, write-back: full-sector writes install the
            // sector without fetching (write-validate).
            ++stats_.write_misses;
            Line &l = line != nullptr ? *line : allocLine(line_addr, now);
            l.sector_valid |= (1ull << sector);
            l.dirty = true;
            touch(l);
        }
        // Writes are posted: complete at the lookup point. A write that
        // also flows downstream re-uses the just-completed node as the
        // posted downstream write — complete() is synchronous and
        // consumes the callback, so nothing retains the packet — saving
        // a pool round-trip per store on the write-through path.
        pkt->complete(now);
        if (forward) {
            pkt->addr = sector_addr;
            pkt->size = cfg_.sector_bytes;
            stats_.bytes_downstream += cfg_.sector_bytes;
            downstream_.receive(std::move(pkt), now);
        }
        return;
      }
    }
}

Tick
Cache::fillHop(MemPacket &pkt, Tick t, void *ctx, std::uint64_t a,
               std::uint64_t b)
{
    static_cast<Cache *>(ctx)->handleRiderFill(
        pkt, reinterpret_cast<Mshr *>(a), static_cast<unsigned>(b & 0xff),
        (b & kHopWasAtomic) != 0, t);
    return t;
}

M2NDP_HOT_PATH
void
Cache::handleRiderFill(MemPacket &rider, Mshr *m, unsigned sector,
                       bool was_atomic, Tick when)
{
    hotpath::Scope fill_timer(hotpath::g.fill);
    const std::uint64_t sbit = std::uint64_t(1) << sector;
    M2_ASSERT((m->sectors_pending & sbit) != 0,
              "fill for a sector with no pending miss: line=", m->line,
              " sector=", sector);
    ++stats_.fills;

    // One tag update per fill: the way cached on the node short-circuits
    // the tag probe for every sector after the line's first fill; it is
    // revalidated against the tag array in case the frame was evicted
    // (or re-used) while fills were in flight.
    Line *line;
    if (m->way != kNoWay && tags_[m->way] == m->line) {
        line = &lines_[m->way];
    } else {
        line = findLine(m->line);
        if (line == nullptr)
            line = &allocLine(m->line, when);
        m->way = static_cast<std::uint32_t>(line - lines_.data());
    }
    line->sector_valid |= sbit;
    touch(*line);
    if (was_atomic)
        line->dirty = true;

    m->sectors_pending &= ~sbit;
    --mshr_count_;

    // Detach this sector's merged waiters — the whole chain when this is
    // the line's last outstanding sector, else one filtering pass that
    // keeps other sectors' waiters chained in FIFO order. The emptied
    // node is released *first*: completions below may re-enter the cache
    // and take a fresh node.
    PacketFifo settle;
    if (m->sectors_pending == 0) {
        settle = std::move(m->waiters);
        mshrErase(m);
    } else {
        PacketFifo keep;
        while (!m->waiters.empty()) {
            MemPacket *w = m->waiters.pop();
            (w->wait_sector == sector ? settle : keep).push(w);
        }
        m->waiters = std::move(keep);
    }

    // Continue the rider FIRST: popping its remaining hop frames
    // (response crossbar, an upper level's fill) and its completion
    // callback settles the first-missing request before the requests
    // that merged behind it — the completion order the former
    // carrier-packet chain produced.
    rider.complete(when);

    while (!settle.empty()) {
        MemPacketPtr waiter(settle.pop()); // recycled after completion
        M2_ASSERT(waiter->wait_sector == sector,
                  "stranded waiter on a filled sector");
        if (waiter->op == MemOp::Atomic)
            line->dirty = true;
        waiter->complete(when);
    }

    // Admit one stalled request per freed sector fill. The retry
    // re-looks-up at the fill tick (no second port booking, as before
    // the fusion) and is not counted as a second access.
    if (!stalled_.empty())
        lookupAt(MemPacketPtr(stalled_.pop()), when, true);
}

} // namespace m2ndp
