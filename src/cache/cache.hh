/**
 * @file
 * Sectored set-associative cache with MSHRs.
 *
 * Timing-only: functional data lives in the SparseMemory backend, because
 * the executor applies every load and store when the instruction issues
 * (functional-first execution). The cache decides *when* accesses
 * complete and what traffic flows downstream, not data values.
 *
 * Used for:
 *  - NDP-unit L1D: 128 KiB, 16-way, 4-cycle, 128 B line / 32 B sector,
 *    write-through, no write-allocate (GPU-style, Section III-F)
 *  - Memory-side L2 slices: 128 KiB per channel, 16-way, 7-cycle,
 *    write-back, executes global atomics (Section III-E/F)
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/intrusive_fifo.hh"
#include "common/units.hh"
#include "mem/packet.hh"
#include "sim/event_queue.hh"
#include "sim/reservation.hh"

namespace m2ndp {

/** Static configuration of one cache. */
struct CacheConfig
{
    std::uint64_t size = 128 * 1024;
    unsigned assoc = 16;
    unsigned line_bytes = 128;
    unsigned sector_bytes = 32; ///< fill granularity; == line_bytes if unsectored
    Tick latency = 2000;        ///< lookup latency (ticks)
    Tick port_cycle = 500;      ///< min spacing between lookups (throughput)
    bool write_through = false;
    bool write_allocate = true;
    bool atomics_local = false; ///< execute atomics here (memory-side L2)
    unsigned mshrs = 32;
};

/** Cache statistics. */
struct CacheStats
{
    std::uint64_t read_hits = 0;
    std::uint64_t read_misses = 0;
    std::uint64_t write_hits = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t atomics = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t fills = 0;
    std::uint64_t bytes_downstream = 0;
    std::uint64_t mshr_merges = 0;
    std::uint64_t mshr_stalls = 0;
    /** First-miss fill requests forwarded downstream (one rider each). */
    std::uint64_t miss_forwards = 0;
    /**
     * Pooled packets acquired to service those forwards' request paths,
     * including the rider itself (measured as a pool alloc-count delta
     * across the synchronous downstream traversal). miss_path_packets /
     * miss_forwards is the `packets_per_miss` bench headline; the
     * single-packet miss path holds it at exactly 1.0.
     */
    std::uint64_t miss_path_packets = 0;

    std::uint64_t
    accesses() const
    {
        return read_hits + read_misses + write_hits + write_misses + atomics;
    }
};

/**
 * The cache. Receives MemPackets, completes them after hit latency or
 * after the downstream fill returns.
 */
class Cache : public MemPort
{
  public:
    Cache(EventQueue &eq, CacheConfig cfg, MemPort &downstream);

    /** Releases packets still parked in MSHR-waiter / stalled chains, so
     *  tearing a system down mid-flight does not strand pool nodes. */
    ~Cache() override;

    /**
     * MemPort: the lookup runs immediately (fused), with the port
     * booked from the logical arrival tick @p at and every timing effect
     * (hit completion, downstream miss traffic) stamped with the lookup
     * tick (the port booking's start + latency). No lookup event is
     * scheduled; completions are delivered early with a future tick per
     * the MemPort fused-delivery convention.
     */
    void receive(MemPacketPtr pkt, Tick at) override;

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return cfg_; }

  private:
    /** Line metadata. The tag and LRU stamp live in the parallel compact
     *  `tags_` and `lrus_` arrays (8 B per way each) so the probe and the
     *  victim scan touch 2 cache lines per 16-way set instead of 4. */
    struct Line
    {
        bool dirty = false;             ///< only ever set on a valid way
        std::uint64_t sector_valid = 0; ///< bitmask of valid sectors
    };

    using PacketFifo = IntrusiveFifo<MemPacket, &MemPacket::link>;

    /**
     * One line with outstanding sector misses. Waiters for every sector
     * of the line share one intrusive FIFO chain through
     * `MemPacket::link` (each stamped with its sector in
     * `MemPacket::wait_sector`), so merging a request allocates nothing
     * and a fill settles its waiters in a single chain walk. Nodes live
     * in a fixed pool and never move: the fill frame a first miss pushes
     * on its rider packet carries the node pointer, so a fill performs
     * **no hash probe at all** — and at most one tag probe, via the way
     * cached on the node (`way`, revalidated against the tag array). The
     * first miss itself is never parked: it rides downstream. The line ->
     * node index is a separate open-addressing pointer table (linear
     * probing, backward-shift deletion) sized at construction.
     *
     * `mshr_count_` still counts outstanding *sector* fills, so the
     * MSHR-full stall threshold (`cfg_.mshrs`) and the one-retry-per-fill
     * admission policy are unchanged from the sector-keyed design.
     */
    struct Mshr
    {
        Addr line = 0;
        std::uint64_t sectors_pending = 0; ///< downstream fills in flight
        PacketFifo waiters;
        std::uint32_t way = kNoWay; ///< cached lines_ index for the fill
        Mshr *free_next = nullptr;  ///< node-pool free list
    };

    static constexpr std::uint32_t kNoWay = ~std::uint32_t(0);

    Mshr *mshrFind(Addr line);
    Mshr *mshrInsert(Addr line);
    void mshrErase(Mshr *m);
    std::size_t mshrSlot(Addr line) const;

    /**
     * Perform the lookup with all effects stamped at @p done_tick.
     * @p retry marks a stalled request re-looked-up after a fill: it was
     * already counted as an access (hit/miss, atomic) when it stalled.
     */
    void lookupAt(MemPacketPtr pkt, Tick done_tick, bool retry = false);

    /** Hop-frame payload bit: the rider was an Atomic before it was
     *  re-stamped to a Read fill (sets the line dirty on fill). */
    static constexpr std::uint64_t kHopWasAtomic = 0x100;

    /** Hop-stack trampoline for the fill frame pushed by a first miss:
     *  ctx is the Cache, @p a the stable Mshr node, @p b packs the
     *  sector index and the was-atomic bit. */
    static Tick fillHop(MemPacket &pkt, Tick t, void *ctx, std::uint64_t a,
                        std::uint64_t b);

    /**
     * Batched line-fill path: the rider packet (the first miss itself,
     * forwarded downstream) returned for sector @p sector of @p m's line
     * at @p when. One tag update (cached way), one pass over the line's
     * waiter chain; the node is released before any completion runs when
     * the line's last sector fills, so completions can re-enter the
     * cache freely. The rider's own upward continuation (remaining hop
     * frames + callback) runs *before* the merged waiters settle,
     * preserving first-miss-first completion order.
     */
    void handleRiderFill(MemPacket &rider, Mshr *m, unsigned sector,
                         bool was_atomic, Tick when);

    // Line/sector geometry is power-of-two (asserted at construction —
    // the mask arithmetic below depends on it), so these stay mask/shift
    // with no integer divide on the lookup path.
    Addr lineAddr(Addr a) const { return a & ~static_cast<Addr>(cfg_.line_bytes - 1); }
    Addr sectorAddr(Addr a) const { return a & ~static_cast<Addr>(cfg_.sector_bytes - 1); }
    unsigned sectorIndex(Addr a) const
    {
        return static_cast<unsigned>((a & (cfg_.line_bytes - 1)) >>
                                     sector_shift_);
    }
    std::uint64_t setIndex(Addr line_addr) const;

    /** Find the line for @p line_addr; nullptr on miss. */
    Line *findLine(Addr line_addr);
    /** Allocate (possibly evicting) a line frame for @p line_addr. */
    Line &allocLine(Addr line_addr, Tick now);
    void
    touch(const Line &line)
    {
        lrus_[static_cast<std::size_t>(&line - lines_.data())] =
            ++lru_clock_;
    }

    void sendDownstream(MemOp op, Addr addr, std::uint32_t size, Tick at,
                        TickCallback cb);

    EventQueue &eq_;
    CacheConfig cfg_;
    MemPort &downstream_;
    std::uint64_t set_mask_ = 0; ///< set count - 1 (a power of two)
    /**
     * Line metadata, flattened to [set * assoc + way]. The tag probe runs
     * over the separate compact tags_ array (8 B per way instead of a
     * 16 B Line), so a 16-way probe touches 2 cache lines, not 4.
     */
    std::vector<Line> lines_;
    std::vector<Addr> tags_; ///< line tag per way; kNoTag when invalid
    std::vector<std::uint64_t> lrus_; ///< LRU stamp per way (see touch)
    static constexpr Addr kNoTag = ~static_cast<Addr>(0);

    /** Fixed MSHR node pool (stable addresses; captured by fill
     *  callbacks) and the line-keyed open-addressing index over it. */
    std::vector<Mshr> mshr_nodes_;
    Mshr *mshr_free_ = nullptr;
    std::vector<Mshr *> mshr_index_;
    std::uint64_t mshr_mask_ = 0;
    std::size_t mshr_count_ = 0; ///< outstanding sector fills (stall gate)

    /** Requests waiting for a free MSHR. */
    PacketFifo stalled_;

    Reservation port_; ///< lookup port, one port_cycle per access
    std::uint64_t lru_clock_ = 0;
    unsigned sector_shift_ = 0; ///< log2(sector_bytes)
    CacheStats stats_;
};

} // namespace m2ndp
