/**
 * @file
 * Central discrete-event queue.
 *
 * All simulated components schedule callbacks at absolute ticks
 * (picoseconds). Events at equal ticks execute in scheduling order
 * (FIFO tie-break) so simulations are deterministic.
 *
 * The engine is built for zero steady-state allocation on the hot path:
 *
 *  - Callbacks are `EventCallback` (InlineCallback<void()>): captures up to
 *    48 B live inline in the event node, never on the heap.
 *  - Event nodes come from a SlabPool freelist and are recycled as soon
 *    as they execute or are cancelled.
 *  - Pending events live in one 4-ary min-heap of node pointers ordered
 *    by (tick, sequence), so the deterministic FIFO tie-break is the
 *    heap key itself. Real workloads keep a few to a few dozen events
 *    pending (docs/performance.md), so the O(log n) sifts stay short.
 *    Each node records its heap index, so cancellation removes it eagerly
 *    in O(log n).
 *  - `Ticker` gives components a single reusable self-wakeup event with
 *    earliest-wins coalescing, replacing the hand-rolled
 *    armed-flag/supersede patterns that used to leave stale closures in
 *    the heap.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/callback.hh"
#include "common/log.hh"
#include "common/slab_pool.hh"
#include "common/units.hh"

namespace m2ndp {

/** Move-only callback type used for scheduled events. */
using EventCallback = InlineCallback<void()>;

class Ticker;

/**
 * Interface a partitioned-simulation coordinator implements so existing
 * `run()`/`step()`/`empty()` call sites keep working when the simulation
 * is sharded across several EventQueues (see sim/partition.hh). The
 * System installs a driver on its *host* queue only; raw queues (unit
 * tests, benches) have none and keep pure local semantics.
 */
class SimDriver
{
  public:
    virtual ~SimDriver() = default;
    /** Execute one event somewhere in the domain. False on global idle. */
    virtual bool driveStep() = 0;
    /** Run the domain until idle or past @p limit; events executed. */
    virtual std::uint64_t driveRun(Tick limit) = 0;
    /** True when every partition queue and mailbox is empty. */
    virtual bool driveEmpty() const = 0;
};

/** Discrete-event simulation engine. */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Bounded-lateness allowance for quantized delivery (see the DRAM
     * drain quantum): a component that coalesces completion *delivery*
     * onto cycle edges while keeping completion ticks exact registers the
     * worst-case lateness here. Causality checks on fused paths then
     * accept `at + deliverySlack() >= now()` instead of `at >= now()` —
     * the next-free-tick booking math treats a bounded-past tick as an
     * ordinary floor, so nothing downstream needs clamping.
     */
    Tick deliverySlack() const { return delivery_slack_; }

    void
    allowDeliverySlack(Tick slack)
    {
        delivery_slack_ = std::max(delivery_slack_, slack);
    }

    /**
     * Schedule @p cb at absolute tick @p when (must be >= now()).
     * Templated so the callable is constructed directly into the pooled
     * event node — no intermediate EventCallback moves.
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        scheduleEvent(when, std::forward<F>(cb));
    }

    /** Schedule @p cb @p delay ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delay, F &&cb)
    {
        scheduleEvent(now_ + delay, std::forward<F>(cb));
    }

    /** With a driver installed, "empty" means the whole domain is idle. */
    bool
    empty() const
    {
        return driver_ != nullptr ? driver_->driveEmpty() : heap_.empty();
    }

    /** Pending events in *this* queue only (never routed). */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Install a partitioned-simulation driver: `run()`, `step()` and
     * `empty()` on this queue then drive the whole domain, so blocking
     * loops written against a single queue (host port `runUntil`, stream
     * `synchronize`, test step loops) work unchanged on a sharded
     * simulation. The driver must outlive the queue's use.
     */
    void setDriver(SimDriver *driver) { driver_ = driver; }

    /**
     * Largest `start - now()` any Reservation on this queue has booked:
     * how far ahead of the simulated present a resource was committed.
     */
    Tick maxBookingLookahead() const { return max_booking_lookahead_; }

    /** Tick of the next pending event (kTickMax if none). */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? kTickMax : heap_.front()->when;
    }

    /**
     * Execute events until the queue drains or @p limit is exceeded.
     * @return number of events executed.
     */
    std::uint64_t
    run(Tick limit = kTickMax)
    {
        return driver_ != nullptr ? driver_->driveRun(limit)
                                  : runLocal(limit);
    }

    /** Execute a single event. @return false if the queue was empty. */
    bool
    step()
    {
        return driver_ != nullptr ? driver_->driveStep() : stepLocal();
    }

    /**
     * Burst-ticking support (run-until-stall): advance now() to @p when
     * iff no pending event would fire at or before it, i.e. the caller's
     * next wakeup is provably the next thing to happen. Returns false —
     * and leaves time untouched — otherwise, in which case the caller
     * must fall back to arming its Ticker and letting the event loop
     * interleave the intervening events normally. Requiring strict
     * `nextEventTick() > when` (not >=) keeps same-tick events ordered
     * ahead of the burst continuation, mirroring the FIFO tie-break a
     * re-armed Ticker would observe.
     *
     * Legal mid-dispatch: a component's tick handler may consume cycle
     * edges in a loop, paying zero scheduled events for edges where the
     * queue is provably quiet (see CxlMemoryExpander's unit cycle driver).
     */
    bool
    tryAdvance(Tick when)
    {
        M2_ASSERT(when >= now_, "tryAdvance into the past");
        if (when >= run_bound_)
            return false; // partition window edge: defer to the next round
        if (nextEventTick() <= when)
            return false;
        now_ = when;
        return true;
    }

  private:
    friend class Ticker;
    friend class SimDomain;
    friend class Reservation;

    static constexpr unsigned kSlabEvents = 256;

    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Event *next = nullptr; ///< freelist link
        std::size_t pos = 0;   ///< index in heap_ while pending
        EventCallback cb;
    };

    /** True iff @p a orders strictly before @p b (tick, then FIFO seq). */
    static bool
    before(const Event *a, const Event *b)
    {
        return a->when != b->when ? a->when < b->when : a->seq < b->seq;
    }

    void recycle(Event *ev);

    /** Allocate, stamp (when, seq) and insert a node; cb assigned after. */
    Event *scheduleNode(Tick when);

    template <typename F>
    Event *
    scheduleEvent(Tick when, F &&cb)
    {
        Event *ev = scheduleNode(when);
        ev->cb = std::forward<F>(cb);
        return ev;
    }

    /** Record a Reservation booking that starts at @p start. */
    void
    noteBooking(Tick start)
    {
        if (start > now_)
            max_booking_lookahead_ =
                std::max(max_booking_lookahead_, start - now_);
    }

    /** Remove a pending event scheduled by this queue (Ticker support). */
    void cancelEvent(Event *ev);

    /** Place @p ev at heap slot @p i or above (a hole at i). */
    void siftUp(std::size_t i, Event *ev);
    /** Place @p ev at heap slot @p i or below (a hole at i). */
    void siftDown(std::size_t i, Event *ev);
    /** Remove the entry at heap slot @p i, restoring heap order. */
    void removeAt(std::size_t i);

    /**
     * Remove and return the earliest event if its tick is <= @p limit,
     * nullptr otherwise.
     */
    Event *extractMin(Tick limit);

    /** Pop one event and run its callback (caller checked non-empty). */
    void dispatch(Event *ev);

    /** Single-queue bodies of run()/step() (no driver indirection). */
    std::uint64_t runLocal(Tick limit);
    bool stepLocal();

    /**
     * Partition-window execution (SimDomain): run/step events with
     * `when < bound` strictly. While dispatching, `run_bound_` clamps
     * tryAdvance so run-until-stall burst loops cannot consume cycle
     * edges past the conservative lookahead bound.
     */
    std::uint64_t runWindow(Tick bound);
    bool stepWindow(Tick bound);

    /** Mailbox drain: insert a pre-built callback at an absolute tick. */
    void
    scheduleCallback(Tick when, EventCallback cb)
    {
        Event *ev = scheduleNode(when);
        ev->cb = std::move(cb);
    }

    Tick now_ = 0;
    Tick delivery_slack_ = 0; ///< see deliverySlack()
    std::uint64_t seq_ = 0;
    std::uint64_t scheduled_total_ = 0;
    Tick max_booking_lookahead_ = 0; ///< see maxBookingLookahead()

    /**
     * 4-ary min-heap on (when, seq): children of slot i are 4i+1..4i+4.
     * Four children per node halve the depth of a binary heap; the four
     * siblings a sift-down compares sit in adjacent slots.
     */
    std::vector<Event *> heap_;

    /** Slab growth happens only until the live-event high-water mark;
     *  steady state always hits the freelist (the counting-new test
     *  pins this). */
    SlabPool<Event, &Event::next, kSlabEvents> event_pool_;

    /** Routes run()/step()/empty() through a partition coordinator. */
    SimDriver *driver_ = nullptr;
    /** Exclusive tryAdvance ceiling while inside a partition window. */
    Tick run_bound_ = kTickMax;
};

/**
 * A component's single coalesced self-wakeup.
 *
 * Owns one callback (constructed once, so repeated arming allocates
 * nothing) and at most one pending event in the queue. `armAt(t)` keeps
 * the earliest requested tick: arming later than an existing arm is a
 * no-op; arming earlier moves the pending event instead of abandoning a
 * stale one in the queue. Arming in the past is a bug and asserts (the
 * old DRAM scheduler silently clamped this case, masking errors).
 */
class Ticker
{
  public:
    Ticker(EventQueue &eq, EventCallback cb) : eq_(eq), cb_(std::move(cb)) {}

    ~Ticker() { disarm(); }

    Ticker(const Ticker &) = delete;
    Ticker &operator=(const Ticker &) = delete;

    /** Fire at @p at, or earlier if an earlier arm is already pending. */
    void
    armAt(Tick at)
    {
        M2_ASSERT(at >= eq_.now(), "Ticker armed in the past: ", at, " < ",
                  eq_.now());
        if (ev_ != nullptr) {
            if (armed_at_ <= at)
                return; // existing arm fires first; coalesce
            eq_.cancelEvent(ev_);
            ev_ = nullptr;
        }
        armed_at_ = at;
        ev_ = eq_.scheduleEvent(at, [this] { fired(); });
    }

    /** Cancel the pending arm (no-op if not armed). */
    void
    disarm()
    {
        if (ev_ != nullptr) {
            eq_.cancelEvent(ev_);
            ev_ = nullptr;
        }
    }

    bool armed() const { return ev_ != nullptr; }

    /** Tick of the pending arm (kTickMax when disarmed). */
    Tick armedAt() const { return ev_ != nullptr ? armed_at_ : kTickMax; }

  private:
    void
    fired()
    {
        ev_ = nullptr; // consumed by the queue; re-arming is now legal
        cb_();
    }

    EventQueue &eq_;
    EventCallback cb_;
    EventQueue::Event *ev_ = nullptr;
    Tick armed_at_ = kTickMax;
};

} // namespace m2ndp
