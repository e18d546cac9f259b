/**
 * @file
 * NDP controller: handles M2func calls (Table II), manages the kernel
 * registry and kernel-instance lifecycle, and acts as the uthread
 * generator distributing work to NDP units (Sections III-B/C/E/G).
 *
 * Implemented like the microcontrollers in GPUs [15]: a small command
 * processor behind the packet filter. M2func writes carry the function
 * arguments in the write-data payload; return values are written back to
 * the M2func region so a subsequent read to the same address fetches them
 * (synchronous launches defer that read's response until the kernel
 * finishes).
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hh"
#include "common/intrusive_fifo.hh"
#include "common/slab_pool.hh"
#include "common/units.hh"
#include "isa/assembler.hh"
#include "ndp/kernel.hh"
#include "sim/event_queue.hh"

namespace m2ndp {

class CxlMemoryExpander;

/** M2func function indices (offset = index << 5, Table II). */
enum class M2Func : std::uint32_t {
    RegisterKernel = 0,
    UnregisterKernel = 1,
    LaunchKernel = 2,
    PollKernelStatus = 3,
    ShootdownTlbEntry = 4,
};

/** Byte stride between M2func entry points (1 << 5, Section III-B). */
inline constexpr std::uint64_t kM2FuncStride = 32;

/**
 * Offsets at and beyond this function index are additional LaunchKernel
 * slots, one return value each, so multiple host threads can have launches
 * in flight concurrently (Section III-B: "the offsets can be strided...
 * multiple arguments and return values can be communicated"; Section
 * III-C: concurrent kernels from multiple host threads as with MPS).
 */
inline constexpr std::uint64_t kM2FuncLaunchSlotBase = 8;
inline constexpr unsigned kM2FuncLaunchSlots = 56;

/**
 * Launch slots are spaced two stride units (64 B) apart: a launch payload
 * is up to 64 B, so at the base 32 B stride a full payload written to
 * slot k would alias slot k+1's offset — clobbering its staged return
 * value while that slot's deferred read is still in flight. The 64 KiB
 * M2func region has room to spare (Section III-B: "the offsets can be
 * strided").
 */
inline constexpr std::uint64_t kM2FuncLaunchSlotStride = 2;

/**
 * Legacy error return value (Table II: ERR is a negative value). New
 * code signals failures with specific `NdpError` codes (common/error.hh);
 * kNdpErr remains as the catch-all, numerically NdpError::Unknown.
 */
inline constexpr std::int64_t kNdpErr =
    static_cast<std::int64_t>(NdpError::Unknown);

/** Launch payload byte 0: synchronous-launch flag (Section III-B). */
inline constexpr std::uint8_t kLaunchFlagSync = 0x1;
/**
 * Launch payload byte 0: the 64 B store carries *two* compact 32 B launch
 * descriptors instead of one full-format launch — one store, two kernel
 * launches, amortizing the CXL.mem store per launch under load. Each half
 * owns one return offset of the 64 B slot pair (fn_index and fn_index+1),
 * so the deferred-read completion protocol is unchanged per launch. Only
 * the extra launch slots own such a pair; at the base LaunchKernel
 * offset the store is rejected with NdpError::BadLaunchLayout.
 */
inline constexpr std::uint8_t kLaunchFlagCompact = 0x2;
/** Bytes per compact descriptor; two fill one launch-slot stride. */
inline constexpr unsigned kCompactLaunchBytes = 32;
/** Inline-argument capacity of a compact descriptor. */
inline constexpr unsigned kCompactMaxArgBytes = 8;

/**
 * Wire format of an M2func write payload (little-endian, max 64 B). Fixed
 * inline storage: payloads are staged and passed by value on the launch
 * path without touching the heap.
 */
struct M2FuncPayload
{
    static constexpr std::size_t kMaxBytes = 64;

    std::array<std::uint8_t, kMaxBytes> bytes{};
    std::uint8_t size = 0;

    template <typename T>
    T
    get(std::size_t offset) const
    {
        T v{};
        if (offset + sizeof(T) <= size)
            std::memcpy(&v, bytes.data() + offset, sizeof(T));
        return v;
    }
};

static_assert(M2FuncPayload::kMaxBytes <=
                  kM2FuncLaunchSlotStride * kM2FuncStride,
              "a launch payload must fit the launch-slot stride");

/**
 * One kernel launch as an M2func store carries it: the one codec of the
 * launch wire format, encoded by the host runtime and decoded by the
 * controller. Both layouts start with [0] flags, [1] argument size and
 * [2] WRR weight (0 reads as 1); then
 *  - Full, one launch per store: i64 kernel @8, pool base @16, pool
 *    bound @24, up to 32 B of arguments @32;
 *  - Compact, either half of a batched 64 B store: u32 kernel @4, pool
 *    base @8, pool bound @16, up to 8 B of arguments @24.
 */
struct LaunchWire
{
    enum class Layout : std::uint8_t { Full, Compact };

    /** Inline-argument capacity of the full layout. */
    static constexpr unsigned kMaxArgBytes = 32;

    bool sync = false;
    std::uint8_t weight = 1;
    std::int64_t kernel = -1;
    Addr base = 0;
    Addr bound = 0;
    /** Argument bytes: the caller's on encode, the payload's on decode. */
    const std::uint8_t *args = nullptr;
    std::uint32_t args_size = 0;

    /** Write this launch at byte @p at of the zeroed @p p and extend
     *  p.size over it (a compact launch always fills its 32 B half). */
    void encode(M2FuncPayload &p, unsigned at, Layout layout) const;

    /** Read the launch at byte @p at of @p p; the argument size is
     *  clamped to the layout's capacity and the bytes @p p carries. */
    static LaunchWire decode(const M2FuncPayload &p, unsigned at,
                             Layout layout);
};

/** Controller statistics. */
struct NdpControllerStats
{
    std::uint64_t registrations_rejected = 0;
    std::uint64_t launches = 0;
    std::uint64_t launches_rejected = 0;
    /** Launches that arrived as compact halves of a batched 64 B store. */
    std::uint64_t launches_batched = 0;
    std::uint64_t instances_completed = 0;
    /** Instances that completed with an error (traps + watchdog). */
    std::uint64_t instances_faulted = 0;
    /** Instances killed by the watchdog budget specifically. */
    std::uint64_t watchdog_kills = 0;
    /** pullWork calls that found no work for the asking unit. */
    std::uint64_t pulls_empty = 0;
};

/** Controller limits (Table IV: max 48 concurrent kernels). */
struct NdpControllerConfig
{
    unsigned max_concurrent_instances = 48;
    /**
     * Per-instance watchdog budget in ticks from activation (0 =
     * disabled, the default — no events are scheduled). An instance
     * still running when the budget expires is killed with
     * NdpError::WatchdogTimeout; its uthread slots, scratchpad,
     * register-file budget, and pooled packets recycle through the
     * normal retirement path.
     */
    Tick watchdog_budget = 0;
};

/** One uthread of work handed to a unit by the uthread generator. */
struct SpawnItem
{
    KernelInstance *instance = nullptr;
    const isa::KernelSection *section = nullptr;
    Addr x1 = 0;          ///< mapped address (pool region) or scratchpad base
    std::uint64_t x2 = 0; ///< offset from pool base, or unique ID
};

/** Outcome of NdpController::pullWork. */
enum class PullStatus : std::uint8_t {
    Spawn,   ///< the out-parameter holds the next uthread, now committed
    Empty,   ///< no work for this unit until the next wake
    Blocked, ///< the next uthread needs more registers than are free
};

/**
 * The controller. The device routes filter-matched CXL.mem packets here,
 * and its NDP units pull uthreads from it directly.
 */
class NdpController
{
  public:
    using Config = NdpControllerConfig;

    /** Caches @p dev's unit geometry; the device must outlive this. */
    NdpController(CxlMemoryExpander &dev, Config cfg = NdpControllerConfig{});

    /**
     * Handle an M2func *write* (function call). @p offset is the byte
     * offset into the process' M2func region.
     * @return the function's (possibly not-yet-readable) return value slot
     * is updated internally; the write itself is acked by the device.
     */
    void handleWrite(Asid asid, std::uint64_t offset,
                     const M2FuncPayload &payload);

    /**
     * Handle an M2func *read* (return-value fetch). @p respond is invoked
     * (possibly later, for synchronous launches) with the value.
     */
    void handleRead(Asid asid, std::uint64_t offset,
                    InlineCallback<void(std::int64_t)> respond);

    // ---- uthread generator interface (used by the NDP units) ----
    /**
     * Pull the next uthread for @p unit into @p out if its registers
     * fit the asking sub-core's @p free_reg_bytes. A Blocked pull
     * commits nothing: the same uthread is offered again on retry.
     */
    PullStatus pullWork(unsigned unit, std::uint64_t free_reg_bytes,
                        SpawnItem &out);
    /** A uthread of @p inst finished (at current tick). */
    void uthreadFinished(KernelInstance *inst);
    /** Posted-store drain accounting for kernel completion. */
    void storeIssued(KernelInstance *inst);
    void storeDrained(KernelInstance *inst);

    // ---- direct (driver-level) API used by tests and host runtime ----
    /**
     * Register kernel @p text; returns its id or a negative NdpError.
     * RegistrationFailed when @p res declares fewer than x0-x2, more
     * registers than a file has, more register bytes than one sub-core
     * holds, or more scratchpad than a unit has.
     */
    std::int64_t registerKernel(Asid asid, const std::string &text,
                                const KernelResources &res);
    /**
     * Queue a kernel instance; returns its id or a negative NdpError.
     * @p on_complete runs once when the instance is Done, which for a
     * degenerate launch (empty pool region) is before launch() returns.
     */
    std::int64_t launch(Asid asid, std::int64_t kernel_id, Addr pool_base,
                        Addr pool_bound, const std::uint8_t *args,
                        std::uint32_t args_size,
                        InstanceCompleteFn on_complete = {},
                        unsigned weight = 1);

    /** Convenience overload for tests/drivers holding args in a vector. */
    std::int64_t
    launch(Asid asid, std::int64_t kernel_id, Addr pool_base,
           Addr pool_bound, const std::vector<std::uint8_t> &args,
           InstanceCompleteFn on_complete = {})
    {
        return launch(asid, kernel_id, pool_base, pool_bound, args.data(),
                      static_cast<std::uint32_t>(args.size()),
                      std::move(on_complete));
    }
    KernelStatus status(std::int64_t instance_id) const;

    /**
     * uthreads spawned so far by a *live* instance in its current phase
     * (0 for unknown/completed ids). Fairness tests read this to measure
     * the issue share each tenant received from the weighted cursor.
     */
    std::uint64_t instanceSpawned(std::int64_t instance_id) const;

    /**
     * Kill a queued or running instance with @p code (a negative
     * NdpError value): no further uthreads spawn, already-running ones
     * retire through the normal path, and the instance completes with
     * the error code once spawned uthreads and posted stores drain.
     * Used by the watchdog and by a unit when one of its uthreads traps.
     */
    void killInstance(KernelInstance *inst, std::int64_t code);

    const NdpControllerStats &stats() const { return stats_; }
    unsigned activeInstances() const
    {
        return static_cast<unsigned>(active_.size());
    }
    std::size_t queuedLaunches() const { return pending_.size(); }

    /** Access a registered kernel (for examples/tests). */
    const NdpKernel *kernelById(std::int64_t id) const;

  private:
    /**
     * One M2func return offset: its value and, while a synchronous
     * launch on it runs, the one read held back until the value is
     * ready. The PollKernelStatus slot holds the polled instance id.
     */
    struct ReturnSlot
    {
        std::int64_t value = kNdpErr;
        bool ready = true;
        InlineCallback<void(std::int64_t)> waiter;
    };

    std::uint64_t
    slotKey(Asid asid, std::uint64_t fn_index) const
    {
        return (static_cast<std::uint64_t>(asid) << 12) | fn_index;
    }

    /** Store @p value in a return slot; once it is @p ready, answer the
     *  read parked on the slot, if any. */
    void setReturn(Asid asid, std::uint64_t fn_index, std::int64_t value,
                   bool ready);
    /** A launch store (base offset or extra slot): one full-format
     *  launch or, at an extra slot only, one or two compact ones on
     *  consecutive offsets. */
    void launchStore(Asid asid, std::uint64_t fn_index,
                     const M2FuncPayload &payload);
    /** One decoded launch: launch + return-value plumbing. */
    void launchFromWire(Asid asid, std::uint64_t fn_index,
                        const LaunchWire &w);

    /** The active instance with id @p id, or nullptr. */
    KernelInstance *activeById(std::int64_t id) const;

    /** Try to move pending launches into the active set. */
    void admitPending();
    void activate(KernelInstance *inst);
    void beginPhase(KernelInstance *inst, InstancePhase phase,
                    std::size_t section_index);
    void maybeAdvancePhase(KernelInstance *inst);
    /** Wake the units that can spawn @p inst's current phase. */
    void wakeUnitsFor(const KernelInstance *inst);
    void completeInstance(KernelInstance *inst);
    std::uint64_t phaseTarget(const KernelInstance *inst) const;

    /** Per-unit scratchpad data allocator (identical layout on all units). */
    std::optional<std::uint64_t> spadAllocate(std::uint64_t size);
    void spadFree(std::uint64_t offset, std::uint64_t size);

    CxlMemoryExpander &dev_;
    EventQueue &eq_;
    Config cfg_;
    /** Device geometry, fixed at construction. */
    const unsigned num_units_;
    const unsigned slots_per_unit_;
    /** Register-file bytes of one sub-core (a uthread's upper bound). */
    const std::uint64_t subcore_reg_bytes_;
    isa::Assembler assembler_;

    std::int64_t next_kernel_id_ = 1;
    std::int64_t next_instance_id_ = 1;
    std::unordered_map<std::int64_t, std::unique_ptr<NdpKernel>> kernels_;

    SlabPool<KernelInstance> instance_pool_;
    /**
     * Queued launches. Ids are issued in launch order and only the front
     * is ever admitted, so the queue holds exactly the ids from its
     * front's to next_instance_id_ - 1.
     */
    IntrusiveFifo<KernelInstance> pending_;
    /** Admitted instances in activation order (the WRR cursor's order). */
    std::vector<KernelInstance *> active_;
    /** Round-robin cursor over active_ for pullWork fairness. */
    std::size_t rr_instance_ = 0;
    /**
     * Remaining consecutive spawns owed to the instance under the cursor
     * (weighted round robin). 0 means the cursor advances after the next
     * spawn, which for all-weight-1 instances degenerates to the original
     * strict RR — existing workloads stay bit-exact.
     */
    unsigned rr_credit_ = 0;
    /** Ids of instances that completed with an error (status/poll). */
    std::unordered_set<std::int64_t> completed_errors_;

    std::unordered_map<std::uint64_t, ReturnSlot> returns_;

    /** Free list over per-unit scratchpad data space. */
    std::map<std::uint64_t, std::uint64_t> spad_free_; // offset -> size

    NdpControllerStats stats_;
};

} // namespace m2ndp
