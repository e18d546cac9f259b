/**
 * @file
 * On-chip TLBs and the DRAM-TLB (Section III-H).
 *
 * Each NDP unit has a 256-entry, 8-way D-TLB (and an I-TLB we do not model
 * in timing because kernel code is tiny and I-cache resident). On-chip
 * misses fall back to the DRAM-TLB: a hashed array of 16 B entries in
 * device DRAM, giving one DRAM access of miss penalty. A DRAM-TLB miss
 * falls back to ATS over CXL.io at microsecond cost — rare in steady state
 * because the paper (and we) assume the DRAM-TLB is warmed for resident
 * data.
 */

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitutil.hh"
#include "common/units.hh"
#include "mem/page_table.hh"

namespace m2ndp {

/** Statistics for one TLB. */
struct TlbStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t shootdowns = 0;
    /** Hits served by the two-entry last-translation cache (subset of
     *  hits): these skip the set-associative probe entirely. */
    std::uint64_t fast_hits = 0;
    /** Valid entries displaced by insert() (capacity/conflict evictions). */
    std::uint64_t evictions = 0;
};

/**
 * Set-associative LRU TLB keyed by (ASID, virtual page number).
 * Timing-neutral: callers charge latency based on hit/miss.
 *
 * A two-entry last-translation cache sits in front of the probe:
 * translation is queried on every global memory reference and references
 * are strongly page-local, so most lookups resolve with a couple of
 * compares and no hashing. One entry alone thrashes on the common
 * two-buffer streaming pattern (load from A, store to B alternate pages
 * every instruction); the second, victim-style slot holds the previously
 * displaced translation and is promoted move-to-front on a hit. Both
 * slots point into the backing array (so LRU stamps stay exact) and are
 * invalidated coherently on eviction, shootdown, and flush. The number
 * of sets must be a power of two; set selection is mask-indexed (no
 * division on the hot path).
 */
class Tlb
{
  public:
    Tlb(unsigned entries, unsigned assoc, std::uint64_t page_size);

    /** Look up a VA; fills stats. @return PA of page start if present. */
    std::optional<Addr> lookup(Asid asid, Addr va);

    /** Install a translation (page-aligned PA). */
    void insert(Asid asid, Addr va, Addr pa_page);

    /** Invalidate one page (TLB shootdown, Table II). */
    void shootdown(Asid asid, Addr va);

    /** Drop everything (process teardown). */
    void flush();

    const TlbStats &stats() const { return stats_; }
    std::uint64_t pageSize() const { return page_size_; }

  private:
    struct Entry
    {
        bool valid = false;
        Asid asid = 0;
        std::uint64_t vpn = 0;
        Addr pa_page = 0;
        std::uint64_t lru = 0;
    };

    std::uint64_t setOf(Asid asid, std::uint64_t vpn) const;

    /** Advance the LRU clock, renormalizing on (theoretical) wrap so
     *  replacement never sees stamps from both sides of the wrap. */
    std::uint64_t nextLruStamp();

    unsigned sets_;
    unsigned assoc_;
    std::uint64_t set_mask_;
    std::uint64_t page_size_;
    unsigned page_shift_;
    std::vector<Entry> entries_;
    std::uint64_t lru_clock_ = 0;

    /** One slot of the last-translation fast path: points at the entry
     *  that served a recent hit (entries_ storage is stable). */
    struct FastSlot
    {
        Entry *entry = nullptr;
        Asid asid = 0;
        std::uint64_t vpn = 0;
    };
    /** MRU-ordered: [0] is checked first; a hit in [1] swaps the pair
     *  (move-to-front), and a new translation demotes [0] into [1]. */
    std::array<FastSlot, 2> fast_{};

    /** Install (entry, asid, vpn) as the MRU fast slot, demoting the
     *  current MRU into the victim slot. */
    void
    primeFast(Entry *entry, Asid asid, std::uint64_t vpn)
    {
        // Re-priming the MRU entry (insert-refresh) must not duplicate it
        // into the victim slot — that would silently halve the fast path.
        if (fast_[0].entry != entry)
            fast_[1] = fast_[0];
        fast_[0] = FastSlot{entry, asid, vpn};
    }

    /** Coherence: drop any fast slot aliasing backing entry @p e. */
    void
    dropFast(const Entry *e)
    {
        for (auto &f : fast_)
            if (f.entry == e)
                f.entry = nullptr;
    }

    TlbStats stats_;
};

/**
 * The DRAM-TLB: 16 B entries at hashed locations in a reserved device DRAM
 * region. We model its *contents* as "warm for all mapped pages" (the
 * paper's steady-state assumption) and its *timing* as one DRAM access to
 * the hashed entry address; shootdowns invalidate per-page so subsequent
 * accesses take the ATS path until re-walked.
 */
class DramTlb
{
  public:
    DramTlb(Addr region_base, std::uint64_t region_bytes,
            std::uint64_t page_size);

    /** PA of the entry that would hold (asid, va): for timing accesses. */
    Addr entryAddress(Asid asid, Addr va) const;

    /** True if (asid, va) currently resolves in the DRAM-TLB. */
    bool contains(Asid asid, Addr va) const;

    /** Invalidate a page (host-initiated shootdown). */
    void shootdown(Asid asid, Addr va);

    /** Re-validate after an ATS walk. */
    void refill(Asid asid, Addr va);

    const TlbStats &stats() const { return stats_; }
    TlbStats &stats() { return stats_; }

    /** Modeled storage overhead: 16 B per page (Section III-H). */
    static constexpr std::uint64_t kEntryBytes = 16;

  private:
    std::uint64_t keyOf(Asid asid, Addr va) const;

    Addr region_base_;
    std::uint64_t num_entries_;
    std::uint64_t page_size_;
    /** Pages explicitly shot down (absent = warm). */
    std::vector<std::uint64_t> invalidated_;
    TlbStats stats_;
};

} // namespace m2ndp
