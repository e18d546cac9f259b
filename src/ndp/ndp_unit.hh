/**
 * @file
 * NDP unit microarchitecture (Section III-E, Fig. 7).
 *
 * An NDP unit has 4 sub-cores; each sub-core has 16 uthread slots, issues
 * one instruction per cycle (4-way dispatch per unit) with fine-grained
 * multithreading over ready uthreads, and owns scalar ALU/SFU/LSU and
 * 256-bit vector ALU/SFU/LSU pipes. Register-file capacity (48 KiB per
 * unit, split evenly over the sub-cores) is provisioned per uthread
 * according to the kernel's declared register usage, bounding concurrency
 * exactly as in Section III-D: a sub-core spawns the next uthread only
 * once enough of its registers are free, and until then keeps asking.
 *
 * Execution is functional-first: the isa::step() call at issue performs the
 * architectural effects; this class models when things happen — FU
 * occupancy, FGMT scheduling, scratchpad vs L1D vs global-memory latency,
 * TLB/DRAM-TLB translation delay, and posted-store draining.
 *
 * The unit sits on the device die next to its uthread generator and
 * calls both directly: the CxlMemoryExpander for timing accesses, tick
 * requests, translation and the DRAM-TLB; the NdpController for work,
 * retirement, store drains and kills; and the SparseMemory for the
 * functional reads, writes and atomics behind each issued instruction.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "common/units.hh"
#include "isa/executor.hh"
#include "mem/packet.hh"
#include "mem/sparse_memory.hh"
#include "ndp/kernel.hh"
#include "ndp/ready_sched.hh"
#include "ndp/tlb.hh"
#include "sim/event_queue.hh"

namespace m2ndp {

class CxlMemoryExpander;
class NdpController;

/** uthread slots per sub-core (Table IV); the controller sizes its
 *  per-unit work from this. */
inline constexpr unsigned kSlotsPerSubcore = 16;
/** Data scratchpad per unit, excluding the argument window (Table IV:
 *  128 KiB split with the L1D, Section III-F). */
inline constexpr std::uint64_t kSpadBytes = 64 * kKiB;

/** The NDP-unit values the paper sweeps (Table IV defaults); the fixed
 *  ones are the constants above and in ndp_unit.cc. */
struct NdpUnitConfig
{
    unsigned index = 0;
    unsigned subcores = 4;
    std::uint64_t regfile_bytes = 48 * kKiB;
    Tick period = 500;                    ///< 2 GHz

    /** Ablation: false = coarse spawning (all 16 slots of a sub-core at
     *  once, threadblock-style; Fig. 12a "w/o Fine-grained thr"). */
    bool fine_grained_spawn = true;
    /** Ablation: false = no scalar pipes; scalar ops contend for the vector
     *  ALU like SIMT-only GPUs (Fig. 12a "w/o Addr opt"). */
    bool scalar_units = true;
};

/** Aggregate statistics for one NDP unit. */
struct NdpUnitStats
{
    std::uint64_t instructions = 0;
    std::uint64_t scalar_instructions = 0;
    std::uint64_t vector_instructions = 0;
    std::uint64_t uthreads_completed = 0;
    /** Kernel traps: unmapped-VA accesses caught at translation. */
    std::uint64_t traps_unmapped = 0;
    /** Kernel traps: scratchpad accesses beyond the declared size. */
    std::uint64_t traps_spad_oob = 0;
    /** Ready uthreads retired without executing because their instance
     *  was killed (trap elsewhere, watchdog, abort). */
    std::uint64_t uthreads_killed = 0;
    std::uint64_t global_atomics = 0;
    std::uint64_t spad_accesses = 0;
    std::uint64_t spad_bytes = 0;
    std::uint64_t global_bytes = 0;
    std::uint64_t active_cycles = 0; ///< cycles unit had live uthreads
    std::uint64_t load_latency_ticks = 0; ///< sum of blocking-access latency
    std::uint64_t load_samples = 0;

    // Scheduler observability (ready-list FGMT issue stage).
    /** Sum of ready-ring occupancy (issue-eligible slots) per sub-core
     *  per ticked cycle: ready_occupancy_integral / active_cycles is the
     *  average number of issuable uthreads while the unit is live. */
    std::uint64_t ready_occupancy_integral = 0;
    /** Sub-core cycles with live uthreads but an empty ready ring and an
     *  empty wake list: everything in flight is waiting on memory. */
    std::uint64_t stall_mem_wait = 0;
    /** Sub-core cycles where every live uthread sleeps on a known future
     *  tick (FU result latency, spawn delay): nothing ready *yet*. */
    std::uint64_t stall_no_ready = 0;
    /** Sub-core cycles with issue-eligible uthreads that all lost FU
     *  structural hazards (every candidate's FU busy). */
    std::uint64_t stall_fu_busy = 0;
};

/** The NDP unit proper. */
class NdpUnit : public isa::MemoryIf
{
  public:
    NdpUnit(EventQueue &eq, CxlMemoryExpander &dev, NdpController &ctl,
            SparseMemory &mem, NdpUnitConfig cfg);

    /** Kick the unit: new work may be available (spawn + issue). */
    void wake();

    /**
     * Run one cycle at edge @p now: drain due memory completions, spawn,
     * issue per sub-core. Returns the next edge this unit wants service
     * at (kTickMax = stalled until a completion or wake), which the
     * device's cycle driver records directly — the return value
     * replaces a per-tick `requestUnitTick` upcall. Called only by that
     * driver (and by `wake()` indirectly through a tick request).
     */
    Tick tick(Tick now);

    /** Number of currently live (non-idle) uthread slots. */
    unsigned activeSlots() const;

    const NdpUnitStats &stats() const { return stats_; }

    const TlbStats &dtlbStats() const { return dtlb_.stats(); }

    /** Invalidate one page translation (Table II, privileged path). */
    void
    shootdownTlb(Asid asid, Addr va)
    {
        dtlb_.shootdown(asid, va);
        tcache_.fill(Translation{});
    }

    /** Scratchpad backing store (per unit; shared by all uthreads, A3). */
    std::vector<std::uint8_t> &scratchpad() { return spad_; }

    // isa::MemoryIf — functional path used by the executor at issue time.
    // Routes scratchpad-window VAs to the unit scratchpad / argument
    // window and everything else through translation to device memory.
    void read(Addr va, void *out, unsigned size) override;
    void write(Addr va, const void *in, unsigned size) override;
    std::uint64_t amo(AmoOp op, Addr va, std::uint64_t operand,
                      unsigned width) override;

  private:
    enum class SlotState : std::uint8_t { Idle, Ready, WaitMem };

    struct SubCore;

    struct Slot
    {
        SlotState state = SlotState::Idle;
        isa::UthreadContext ctx;
        KernelInstance *instance = nullptr;
        const isa::KernelSection *section = nullptr;
        /** Owning sub-core (stable; set once at construction). */
        SubCore *owner = nullptr;
        /** Index within the owning sub-core (stable; ReadySched key). */
        std::uint8_t index = 0;
        Tick ready_at = 0;
        unsigned outstanding_loads = 0;
        bool finish_pending = false;
    };

    struct SubCore
    {
        std::vector<Slot> slots;
        /** Unprovisioned bytes of this sub-core's register-file share. */
        std::uint64_t reg_bytes_free = 0;
        unsigned rr_next = 0;
        /** Idle slots as a bitmask: spawn picks the lowest free slot with
         *  a count-trailing-zeros instead of walking the slot array. The
         *  one record of occupancy: 0 = full, kAllIdle = all idle. */
        std::uint64_t idle_mask = 0;
        /** Slots in WaitMem (for stall-reason classification only). */
        unsigned waitmem_count = 0;
        /** Ready ring + ready_at-ordered wake list: the issue stage only
         *  ever touches slots that can actually issue. */
        ReadySched sched;
        /** Next-free tick per FuType (indexed by static_cast). */
        std::array<Tick, 7> fu_free{};
    };

    /**
     * One memory completion parked on the unit, to be applied by the next
     * tick at or after `when`. This is the fused-delivery landing zone:
     * a completing memory stage calls the access callback synchronously
     * (stamped with the logical completion tick, possibly in the future),
     * and the unit's cycle driver applies it at the edge — no
     * response-crossbar event, no unit-wake event.
     *
     * Parked entries live in a (when, seq) min-heap (same pattern as the
     * DRAM channel completion heap): a drain pops only the due prefix,
     * where the old flat vector re-scanned every parked entry — dozens
     * of in-flight posted stores — on every drain edge. Delivery order
     * is (when, arrival) — time-ordered, FIFO within a tick.
     */
    struct PendingCompletion
    {
        Slot *slot;           ///< waiting slot (nullptr for posted stores)
        KernelInstance *inst; ///< instance for drain accounting
        Tick when;            ///< logical completion tick
        std::uint64_t seq;    ///< arrival order (heap tie-break)
        MemOp op;             ///< != Read drains a store at delivery
        bool blocking;        ///< decrements slot->outstanding_loads

        /** Min-heap ordering: std::push_heap keeps the *max* on top, so
         *  "greater" makes the earliest (when, seq) the top element. */
        bool
        operator<(const PendingCompletion &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    /** Park a completion; requests a tick at the edge >= when. */
    void queueCompletion(Slot *slot, KernelInstance *inst, MemOp op,
                         bool blocking, Tick when);
    /** Apply parked completions whose tick has been reached. */
    void drainCompletions(Tick now);

    void scheduleTick(Tick at);
    /** Spawn into an idle slot of @p sc (which has one) if the next
     *  uthread's registers fit. */
    void trySpawn(SubCore &sc, Tick now);
    /**
     * One ready-ring issue pass over @p sc: round-robin-selects among the
     * issue-eligible slots only (bitmask rotate + ctz), issues at most one
     * µop, and returns the earliest tick any Ready slot next wants
     * service (kTickMax if none). Slots waiting on FU latency live in the
     * sub-core's ready_at-ordered wake list; slots waiting on memory are
     * not visited at all — `completeBlockingAccess` re-inserts them into
     * the ring directly. Selection order is bit-exact with the previous
     * full slot walk (property-tested against a reference walk).
     * @p new_cycle gates the per-cycle scheduler stats so same-edge
     * re-ticks do not double-count an already-counted edge.
     */
    Tick issueOne(SubCore &sc, Tick now, bool new_cycle);
    void finishThread(SubCore &sc, Slot &slot);
    /**
     * Issue the timing side of one instruction's memory references.
     * Global refs get real completion callbacks; blocking scratchpad
     * refs have a fixed, known latency, so when they are the only thing
     * the uthread waits on the method schedules nothing and instead
     * returns the tick the slot becomes ready (0 = no pure-scratchpad
     * wait; the caller applies it to ready_at).
     */
    Tick handleMemRefs(Slot &slot, const isa::StepResult &res, Tick now);
    /** Translation delay + global access for one ref; wakes slot. */
    void issueGlobalAccess(Slot &slot, const isa::MemRef &ref, Tick now,
                           bool blocking);
    /**
     * Issue the timing access itself (after any DRAM-TLB fill delay).
     * Split out so the D-TLB fill continuation captures only scalars —
     * capturing a ready-made closure used to overflow the 48 B inline
     * buffer and heap-allocate once per fill.
     */
    void launchGlobalAccess(Slot *slot, KernelInstance *inst, MemOp op,
                            bool blocking, Addr pa, std::uint32_t size,
                            Tick issued_at);
    /**
     * First cycle edge at or after @p t. Runs on every tick re-arm and
     * every queued completion, so the modulo is computed with a
     * precomputed reciprocal (one 64x64->128 multiply) instead of an
     * integer divide; the guard falls back to `%` for ticks beyond the
     * reciprocal's exactness range (~2^64/period — hours of simulated
     * time at 1 ps/tick).
     */
    Tick
    edgeAtOrAfter(Tick t) const
    {
        Tick r;
        if (t < period_div_limit_) {
            std::uint64_t q = static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(t) * period_inv_) >> 64);
            r = t - q * cfg_.period;
        } else {
            r = t % cfg_.period;
        }
        return r == 0 ? t : t + (cfg_.period - r);
    }
    /** Wake a slot after one outstanding blocking access completes.
     *  Called only from drainCompletions (inside tick). */
    void completeBlockingAccess(Slot *slot, Tick when);

    /** Functional scratchpad/arg-window routing helpers. */
    std::uint8_t *spadPointer(Addr va, unsigned size);

    /**
     * One cached VA page: its PA page and the SparseMemory page holding
     * the bytes behind it (physical pages are page-aligned, so one
     * backs the whole VA page). page == nullptr marks an empty entry.
     */
    struct Translation
    {
        Asid asid = 0;
        Addr va_page = 0;
        Addr pa_page = 0;
        SparseMemory::Page *page = nullptr;
    };

    /**
     * The unit's one translation cache, read by the functional path per
     * element and by the timing path per sector, both strongly
     * page-local. Flushed on TLB shootdown (page unmap must be
     * accompanied by a shootdown, Table II). Throws KernelTrap on
     * unmapped VAs (caught at the issue stage; the instance is killed
     * with NdpError::UnmappedAddress).
     */
    const Translation &translateCached(Asid asid, Addr va);

    EventQueue &eq_;
    CxlMemoryExpander &dev_;
    NdpController &ctl_;
    SparseMemory &mem_;
    NdpUnitConfig cfg_;
    std::vector<SubCore> subcores_;
    std::vector<std::uint8_t> spad_;
    Tlb dtlb_;

    /**
     * Direct-mapped by low VA-page bits (see translateCached). A few
     * entries instead of one: kernels commonly stream from 2-3 distinct
     * buffers (distinct pages) per iteration, which would thrash a
     * single entry every access.
     */
    static constexpr unsigned kTcacheEntries = 8;
    std::array<Translation, kTcacheEntries> tcache_{};
    /** ceil(2^64 / period) and the tick bound below which the reciprocal
     *  multiply computes t / period exactly (see edgeAtOrAfter). */
    std::uint64_t period_inv_ = 0;
    Tick period_div_limit_ = 0;
    /** A sub-core's idle_mask with every slot idle. */
    static constexpr std::uint64_t kAllIdle =
        (std::uint64_t{1} << kSlotsPerSubcore) - 1;
    static_assert(kSlotsPerSubcore < ReadySched::kMaxSlots,
                  "sub-core slot count exceeds the ready ring width");
    bool work_maybe_available_ = true;
    /** Previous ticked edge: same-edge re-ticks skip per-cycle stats. */
    Tick last_tick_ = kTickMax;
    /** Parked memory completions: (when, seq) min-heap over a capacity-
     *  retaining vector (drained by tick; heap top tick == pending_min_). */
    std::vector<PendingCompletion> pending_;
    std::uint64_t pending_seq_ = 0;
    Tick pending_min_ = kTickMax;
    NdpUnitStats stats_;

    /** Functional context of the uthread currently in step(). */
    Slot *current_slot_ = nullptr;
};

} // namespace m2ndp
