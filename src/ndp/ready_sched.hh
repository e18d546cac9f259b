/**
 * @file
 * Per-subcore ready scheduler for the FGMT issue stage.
 *
 * Replaces the O(slots) round-robin walk over all uthread slots with two
 * structures that together touch only slots that can actually issue:
 *
 *  - a **ready ring**: a bitmask over slot indices of the slots that are
 *    issue-eligible at the current cycle edge. Round-robin selection is a
 *    rotate + count-trailing-zeros at the RR cursor, so fairness order is
 *    exactly the slot-index order the old walk produced — just without
 *    visiting idle or memory-waiting slots.
 *  - a **wake list**: slots in the Ready architectural state whose next
 *    service tick is known and in the future (FU result latency,
 *    scratchpad latency, spawn delay), kept ordered by ready_at so
 *    `advance(now)` pops only the due prefix into the ring and
 *    `nextWake()` is the head. Memory completions bypass the list: the
 *    drain path inserts the woken slot straight into the ring.
 *
 * Determinism: ring order is slot-index order (insertion order into the
 * mask is irrelevant), and same-tick wakes therefore join the ring in a
 * canonical order — the RR pick is bit-exact with the reference slot walk
 * (property-tested in tests/test_properties.cc).
 */

#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/log.hh"
#include "common/units.hh"

namespace m2ndp {

/** Ready ring + wake list for one sub-core (up to 64 uthread slots). */
class ReadySched
{
  public:
    static constexpr unsigned kMaxSlots = 64;

    void
    reset(unsigned nslots)
    {
        M2_ASSERT(nslots >= 1 && nslots <= kMaxSlots,
                  "ReadySched supports 1..64 slots, got ", nslots);
        n_ = nslots;
        mask_ = 0;
        nwake_ = 0;
    }

    /** Slot becomes issue-eligible immediately (memory wake, completion
     *  delivered at an edge already reached). */
    void
    makeReady(unsigned slot)
    {
        M2_ASSERT(slot < n_, "slot out of range");
        mask_ |= std::uint64_t(1) << slot;
    }

    /**
     * Slot is Ready but must not issue before @p at (FU latency, spawn
     * delay). Insertion keeps the list ordered ascending by wake tick;
     * ties append after existing equals (stable), though tie order is
     * immaterial — same-tick wakes land in the ring as mask bits.
     */
    void
    sleepUntil(unsigned slot, Tick at)
    {
        M2_ASSERT(slot < n_, "slot out of range");
        M2_ASSERT(nwake_ < kMaxSlots, "wake list overflow");
        unsigned pos = nwake_;
        while (pos > 0 && wake_[pos - 1].when > at) {
            wake_[pos] = wake_[pos - 1];
            --pos;
        }
        wake_[pos] = Waiter{at, static_cast<std::uint8_t>(slot)};
        ++nwake_;
    }

    /** Move every slot due at or before @p now from the wake list into
     *  the ready ring. */
    void
    advance(Tick now)
    {
        unsigned due = 0;
        while (due < nwake_ && wake_[due].when <= now) {
            mask_ |= std::uint64_t(1) << wake_[due].slot;
            ++due;
        }
        if (due == 0)
            return;
        for (unsigned i = due; i < nwake_; ++i)
            wake_[i - due] = wake_[i];
        nwake_ -= due;
    }

    /** Slot leaves the ring only (the per-issue fast path: an issued
     *  slot was just picked from the ring, so it cannot be asleep). */
    void
    removeReady(unsigned slot)
    {
        mask_ &= ~(std::uint64_t(1) << slot);
    }

    /** Slot left the Ready state (issued into WaitMem, or finished).
     *  Idempotent; also purges a (rare) wake-list entry defensively. */
    void
    remove(unsigned slot)
    {
        mask_ &= ~(std::uint64_t(1) << slot);
        for (unsigned i = 0; i < nwake_; ++i) {
            if (wake_[i].slot == slot) {
                for (unsigned j = i + 1; j < nwake_; ++j)
                    wake_[j - 1] = wake_[j];
                --nwake_;
                return;
            }
        }
    }

    /** Issue-eligible slots as a bitmask (the ring contents). */
    std::uint64_t readyMask() const { return mask_; }
    bool anyReady() const { return mask_ != 0; }
    /** Slots on the wake list (ready state, not yet due). */
    unsigned sleeperCount() const { return nwake_; }

    /** Earliest future wake tick (kTickMax when the list is empty). */
    Tick nextWake() const { return nwake_ != 0 ? wake_[0].when : kTickMax; }

    /**
     * First candidate of @p mask in round-robin order from @p cursor:
     * the lowest set bit at or above the cursor, wrapping to the lowest
     * set bit overall. Returns -1 when the mask is empty. Callers skip a
     * rejected candidate (busy FU) by clearing its bit in a scratch copy
     * and calling again — the wrap arithmetic keeps RR order intact.
     */
    static int
    pickFrom(std::uint64_t mask, unsigned cursor)
    {
        if (mask == 0)
            return -1;
        std::uint64_t at_or_after = mask & (~std::uint64_t(0) << cursor);
        std::uint64_t pool = at_or_after != 0 ? at_or_after : mask;
        return std::countr_zero(pool);
    }

  private:
    struct Waiter
    {
        Tick when = 0;
        std::uint8_t slot = 0;
    };

    std::uint64_t mask_ = 0; ///< issue-eligible slots, bit per slot index
    unsigned n_ = 0;
    std::array<Waiter, kMaxSlots> wake_{}; ///< ready_at-ordered, due first
    unsigned nwake_ = 0;
};

} // namespace m2ndp
