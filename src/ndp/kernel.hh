/**
 * @file
 * Registered NDP kernels and running kernel instances (Sections III-B/C/G).
 *
 * A kernel is registered once (ndpRegisterKernel) with its resource
 * declaration: scratchpad bytes and int/float/vector register counts, which
 * drive uthread-slot provisioning (Section III-D). Each launch creates a
 * KernelInstance bound to a uthread pool region; the instance walks through
 * phases: initializer -> body(s) -> finalizer (Section III-G).
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/callback.hh"
#include "common/units.hh"
#include "isa/inst.hh"
#include "mem/page_table.hh"

namespace m2ndp {

struct KernelInstance;

/**
 * Completion hook given to a kernel launch; invoked once with the
 * finished instance (its id and error). Inline (48 B, move-only) so the
 * per-launch completion plumbing never touches the heap.
 */
using InstanceCompleteFn = InlineCallback<void(const KernelInstance &)>;

/** Resource declaration given at kernel registration (Table II). */
struct KernelResources
{
    std::uint32_t scratchpad_bytes = 0;
    std::uint8_t num_int_regs = 8;
    std::uint8_t num_float_regs = 0;
    std::uint8_t num_vector_regs = 0;

    /** Register bytes per uthread (drives slot provisioning). */
    std::uint64_t
    registerBytes() const
    {
        return static_cast<std::uint64_t>(num_int_regs) * 8 +
               static_cast<std::uint64_t>(num_float_regs) * 8 +
               static_cast<std::uint64_t>(num_vector_regs) * isa::kVlenBytes;
    }
};

/** A registered kernel. */
struct NdpKernel
{
    std::int64_t id = -1;
    Asid asid = 0;
    /** What the units execute, assembled once at registration. */
    isa::AssembledKernel code;
    KernelResources resources;
};

/** Instance execution phase. */
enum class InstancePhase : std::uint8_t {
    Pending,     ///< queued, waiting for resources
    Initializer,
    Body,
    Finalizer,
    Draining,    ///< all uthreads done, posted stores still in flight
    Done,
};

/** Status codes returned by ndpPollKernelStatus (Table II). */
enum class KernelStatus : std::int64_t {
    Finished = 0,
    Running = 1,
    Pending = 2,
    /** Completed with an error (trap, watchdog kill). */
    Faulted = 3,
};

/**
 * One running (or queued) kernel launch. Slab-pooled by the controller;
 * a launch starts from a default-constructed instance.
 */
struct KernelInstance
{
    /** Launch-queue link while Pending; pool freelist link while free. */
    KernelInstance *next = nullptr;
    std::int64_t id = -1;
    const NdpKernel *kernel = nullptr;
    Asid asid = 0;

    Addr pool_base = 0;
    Addr pool_bound = 0;
    /** The whole argument window, zero past the launch's args. */
    std::array<std::uint8_t, layout::kKernelArgWindow> args{};

    InstancePhase phase = InstancePhase::Pending;
    std::size_t section_index = 0; ///< current section in kernel->code

    /**
     * Weighted-round-robin share on the controller's pullWork cursor
     * (Section III-E fairness): an instance with weight w is served w
     * consecutive spawns before the cursor advances. Weight 1 (the
     * default) reproduces the original strict round robin exactly.
     */
    std::uint8_t weight = 1;

    /** Per-unit scratchpad data offset allocated for this instance. */
    std::uint64_t spad_offset = 0;

    /** Spawn bookkeeping for the current phase. */
    std::vector<std::uint64_t> next_work; ///< per-unit next work index
    std::uint64_t spawned = 0;
    std::uint64_t completed = 0;
    std::uint64_t phase_target = 0;

    /** Posted stores still in flight (kernel completes when drained). */
    std::uint64_t outstanding_stores = 0;

    /**
     * First error observed (a negative NdpError value; 0 = clean). Set
     * by a uthread trap or a watchdog kill; once set, no further work
     * spawns and the instance drains to Done, completing with this code
     * instead of its instance id.
     */
    std::int64_t error = 0;

    /** Launch-time hook, invoked exactly once when the instance is Done. */
    InstanceCompleteFn on_complete;

    /**
     * What the launch returns to the host once Done: the error code if
     * the instance faulted, else its instance id. Every offload scheme
     * reports completion through this one rule.
     */
    std::int64_t
    returnValue() const
    {
        return error < 0 ? error : id;
    }

    bool
    isActive() const
    {
        return phase != InstancePhase::Pending && phase != InstancePhase::Done;
    }
};

} // namespace m2ndp
