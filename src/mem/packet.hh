/**
 * @file
 * Memory packet types shared by the timing path (caches, NoC, DRAM, CXL).
 *
 * A MemPacket describes one physical-address access of up to one cache line.
 * Completion is signalled through a callback carrying the completion tick, so
 * producers (LSUs, host models, the CXL port) can be woken without the
 * memory system knowing about them.
 *
 * Packets are slab-pooled: `MemPacketPool::alloc()` hands out recycled
 * nodes and the `MemPacketPtr` deleter returns them, so steady-state
 * traffic performs zero heap allocations per access.
 *
 * A miss rides **one** packet end-to-end: each level a packet descends
 * (L1 miss, NoC port, L2 miss) pushes a *hop frame* — a plain
 * {function, context, two words} record — onto the packet's intrusive
 * hop stack instead of parking the packet and forwarding a fresh carrier
 * with an interposed callback. `complete(t)` pops the frames LIFO,
 * threading the completion tick through each (a frame may transform it,
 * e.g. folding in the response-crossbar hop as a latency term), and
 * finally runs `onComplete`. Frames capture nothing — the
 * two payload words are packed by the pusher — so the response path
 * allocates nothing and wraps no callbacks.
 */

#pragma once

#include <cstdint>
#include <memory>

#include "common/callback.hh"
#include "common/log.hh"
#include "common/units.hh"

namespace m2ndp {

/**
 * Completion callback carrying the completion tick. Small-buffer optimized
 * and move-only: the per-access callback chain (LSU -> L1 -> NoC -> L2 ->
 * DRAM) allocates nothing for captures up to 48 B.
 */
using TickCallback = InlineCallback<void(Tick)>;

/** Kind of memory operation. */
enum class MemOp : std::uint8_t {
    Read,
    Write,
    /** Read-modify-write executed at the memory-side L2 (global atomics). */
    Atomic,
};

struct MemPacket;

/**
 * One frame of a packet's return path (see MemPacket). `fn` receives the
 * packet, the completion tick produced by the frames popped before it,
 * and the two payload words packed at push time; it returns the tick the
 * next frame (or `onComplete`) observes. Plain function pointer +
 * POD payload: no captures, no heap, trivially resettable on recycle.
 */
struct HopFrame
{
    using Fn = Tick (*)(MemPacket &pkt, Tick t, void *ctx, std::uint64_t a,
                        std::uint64_t b);
    Fn fn = nullptr;
    void *ctx = nullptr;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

namespace detail {
/** Deepest hop stack seen on this thread (test observability). */
inline thread_local std::uint8_t t_hop_high_water = 0;
} // namespace detail

/** One physical memory access in flight. */
struct MemPacket
{
    /**
     * Hop-stack depth: the deepest traversal is an L1 read miss that
     * also misses L2 — L1 fill frame, response-crossbar frame, L2 fill
     * frame.
     */
    static constexpr unsigned kMaxHops = 3;

    Addr addr = 0;
    std::uint32_t size = 0;
    MemOp op = MemOp::Read;

    /**
     * Wait-queue tag owned by whoever holds the packet in an intrusive
     * chain. Caches park line-fill waiters of a whole line on one MSHR
     * chain and stamp each with its sector index here, so a sector fill
     * settles its waiters in a single chain walk with no per-packet
     * address arithmetic.
     */
    std::uint8_t wait_sector = 0;
    std::uint8_t num_hops = 0; ///< frames on the hop stack below

    /** Completion callback; invoked exactly once at completion tick. */
    TickCallback onComplete;

    /**
     * Intrusive link. While pooled: the free-list chain. While in flight:
     * available to the current owner as a wait-queue link (cache MSHR
     * waiter chains, stalled queues) — a packet sits in at most one such
     * queue at a time.
     */
    MemPacket *link = nullptr;

    /** Return-path frames, pushed on the way down, popped on the way up
     *  (LIFO: the innermost level's frame fires first). */
    HopFrame hops[kMaxHops];

    /** Push a return-path frame (zero-allocation; no captures). */
    void
    pushHop(HopFrame::Fn fn, void *ctx, std::uint64_t a, std::uint64_t b)
    {
        M2_ASSERT(num_hops < kMaxHops, "MemPacket hop-stack overflow");
        if (num_hops + 1u > detail::t_hop_high_water)
            detail::t_hop_high_water =
                static_cast<std::uint8_t>(num_hops + 1u);
        hops[num_hops++] = HopFrame{fn, ctx, a, b};
    }

    /**
     * Pop the hop stack (LIFO), threading the completion tick through
     * each frame, then run the completion callback.
     *
     * Re-entrant by design: a fill frame completes the packet's *rider*
     * role first — it calls `complete()` recursively to continue the
     * upward traversal before settling the waiters merged behind it, so
     * first-miss-first completion order is preserved. The loop re-reads
     * `num_hops` each iteration and `onComplete` is moved out before it
     * is invoked, so the recursive call drains the remaining frames and
     * the outer invocation finds nothing left to run.
     */
    void
    complete(Tick t)
    {
        while (num_hops > 0) {
            const HopFrame f = hops[--num_hops];
            t = f.fn(*this, t, f.ctx, f.a, f.b);
        }
        if (onComplete) {
            TickCallback cb = std::move(onComplete);
            onComplete.reset();
            cb(t);
        }
    }
};

static_assert(sizeof(MemPacket) == 192, "keep the small fields by `size`");

/**
 * Slab-backed free list of MemPackets. Each executor thread recycles
 * nodes through its own thread-local freelist (packets never migrate
 * between partitions mid-flight), while the slabs themselves come from
 * a process-lifetime shared arena so teardown-order cross-thread
 * releases stay memory-safe. Steady-state alloc/release cycles touch
 * neither the heap nor any shared cache line.
 */
class MemPacketPool
{
  public:
    /** Pop a recycled packet (fields reset, callbacks empty). */
    static MemPacket *alloc();

    /** Reset @p pkt and push it back on the free list. */
    static void release(MemPacket *pkt);

    /** Packets live on the calling thread (leak checks in tests). */
    static std::size_t outstanding();

    /**
     * Monotonic count of pool acquisitions on the calling thread. The
     * request path is fully synchronous, so a delta around a downstream
     * forward measures exactly how many packets servicing that miss
     * acquired (the `packets_per_miss` headline).
     */
    static std::uint64_t allocCount();

    /** Deepest hop stack pushed on the calling thread (tests). */
    static unsigned
    hopHighWater()
    {
        return detail::t_hop_high_water;
    }
};

struct MemPacketDeleter
{
    void operator()(MemPacket *pkt) const { MemPacketPool::release(pkt); }
};

using MemPacketPtr = std::unique_ptr<MemPacket, MemPacketDeleter>;

/** Allocate and fill a pooled packet. */
inline MemPacketPtr
makePacket(MemOp op, Addr addr, std::uint32_t size, TickCallback cb)
{
    MemPacket *pkt = MemPacketPool::alloc();
    pkt->op = op;
    pkt->addr = addr;
    pkt->size = size;
    pkt->onComplete = std::move(cb);
    return MemPacketPtr(pkt);
}

/** Interface implemented by anything that accepts memory packets. */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /**
     * Hand a packet to this component; it logically arrives at tick
     * @p at (>= now; callers outside a fused stage pass `eq.now()`).
     * Ownership transfers; the component must eventually invoke
     * complete() (directly or through a peer) and release the packet.
     *
     * Fused delivery: the producing stage already knows when the packet
     * reaches this port (crossbar hop, cache lookup latency), so instead
     * of scheduling an event to make sim-time catch up first, the packet
     * is pushed immediately and the port accounts from @p at.
     *
     * Completion follows the same convention: `complete(t)` may run at a
     * sim-time earlier than `t`, carrying the logical completion tick.
     * Consumers on fused paths must treat `t` as "payload is ready at t",
     * not "now == t" (the NDP units park such completions on their cycle
     * ticker; the host port re-schedules at max(now, t)).
     */
    virtual void receive(MemPacketPtr pkt, Tick at) = 0;
};

} // namespace m2ndp
