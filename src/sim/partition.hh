/**
 * @file
 * Partitioned parallel simulation: conservative lookahead coordinator.
 *
 * The simulation is sharded into one partition per CXL memory expander
 * plus one for the host. Each partition owns its own EventQueue; the
 * SimDomain advances them in BSP-style rounds bounded by a conservative
 * lookahead derived from the CXL link latency:
 *
 *     N = min over all partitions of nextEventTick()   (after mail drain)
 *     B = N + lookahead
 *
 * Every cross-partition interaction (HostCxlPort stages, CxlLink sends,
 * the P2P crossbar, CXL.io doorbells) already stamps an explicit arrival
 * tick at least `lookahead` past the sender's clock, so a partition may
 * execute all of its events with `when < B` without ever receiving a
 * message that lands inside the window: a message posted by a sender at
 * tick t >= N arrives at >= t + lookahead >= B. Messages cross between
 * partitions only through per-direction Mailboxes, drained at the round
 * barrier (single-threaded) directly into the receiver's queue.
 *
 * Determinism is by construction: the round structure — drain order
 * (to-partition major, from-partition minor, FIFO within an edge), the
 * global minimum N, the bound B, and each partition's strictly local
 * (when, seq) event order — is a pure function of simulation state and
 * never of thread count or OS scheduling. A serial run and an N-thread
 * run produce bit-identical event sequences per partition, and therefore
 * identical engine checksums, sim times, and result bytes.
 *
 * The SimDomain implements SimDriver and installs itself on the host
 * queue, so blocking loops written against one queue — `stepUntil`,
 * `synchronize`, test step loops — drive the whole domain unchanged.
 * driveStep() preserves single-event granularity: with one executor it
 * executes exactly one event per call (device partitions scanned in
 * index order, then the host — equivalent to the parallel schedule
 * because partitions cannot interact within a round).
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"

namespace m2ndp {

/** One cross-partition message: an arrival tick and the work to run. */
struct MailMsg
{
    Tick when = 0;
    EventCallback cb;
};

/**
 * One direction of cross-partition traffic (a single (from, to) edge).
 * Producers append under the lock from their partition's thread; the
 * coordinator drains at the round barrier while all workers are parked
 * (the lock is then uncontended but still taken, giving TSan and the
 * memory model an explicit happens-before edge). The vector retains its
 * capacity across drains and callbacks live inline, so the warm path
 * allocates nothing.
 */
class Mailbox
{
  public:
    void
    post(Tick when, EventCallback cb)
    {
        std::lock_guard<std::mutex> g(mu_);
        pending_.push_back(MailMsg{when, std::move(cb)});
        ++posted_;
    }

    /** Messages ever posted on this edge (checksum ingredient). */
    std::uint64_t posted() const { return posted_; }

  private:
    friend class SimDomain;

    std::mutex mu_;
    std::vector<MailMsg> pending_;
    std::uint64_t posted_ = 0;
};

/**
 * Round coordinator and executor pool for a partitioned simulation.
 *
 * Partition ids: 0 is the host, 1..D are the devices. Device i (0-based)
 * runs on executor i % E where E = min(threads, D); executor 0 is the
 * calling thread, executors 1..E-1 are persistent worker threads parked
 * on a generation-counted barrier between rounds. All user-facing entry
 * points (driveRun/driveStep, post from non-event code) run with the
 * workers parked, so host-side state is never touched concurrently.
 */
class SimDomain : public SimDriver
{
  public:
    /**
     * @param host      the host partition's queue (id 0)
     * @param devices   device partition queues (ids 1..D), non-owning
     * @param lookahead conservative bound increment: the minimum latency
     *                  any cross-partition message adds to the sender's
     *                  clock (min one-way link / P2P latency). Must be
     *                  positive.
     * @param threads   requested executor count (clamped to [1, D])
     */
    SimDomain(EventQueue &host, std::vector<EventQueue *> devices,
              Tick lookahead, unsigned threads);
    ~SimDomain() override;

    SimDomain(const SimDomain &) = delete;
    SimDomain &operator=(const SimDomain &) = delete;

    /** Partition id of the host queue. */
    static constexpr unsigned kHost = 0;
    /** Partition id of device @p index (0-based). */
    static constexpr unsigned deviceId(unsigned index) { return index + 1; }

    /** Partitions in the domain (host + devices). */
    unsigned partitions() const { return static_cast<unsigned>(queues_.size()); }
    /** The conservative lookahead (ticks). */
    Tick lookahead() const { return lookahead_; }

    /**
     * Post @p cb to partition @p to, to run at absolute tick @p when.
     * Callable from any partition's thread mid-round (from is the
     * poster's own partition). @p when must be at least lookahead() past
     * the sender's current tick — the conservative-synchronization
     * contract; violations trip the receiver's scheduling assert at the
     * next drain.
     */
    void
    post(unsigned from, unsigned to, Tick when, EventCallback cb)
    {
        mailboxes_[from * partitions() + to].post(when, std::move(cb));
        mail_pending_.fetch_add(1, std::memory_order_release);
    }

    // SimDriver interface ---------------------------------------------
    bool driveStep() override;
    std::uint64_t driveRun(Tick limit) override;
    bool driveEmpty() const override;

    /**
     * Order- and thread-count-invariant digest of engine state: each
     * partition's (now, scheduled_total, seq) plus each mailbox edge's
     * posted count, FNV-mixed in partition order. Serial and N-thread
     * runs of the same seed must produce identical values.
     */
    std::uint64_t engineChecksum() const;

    /** Events scheduled across every partition (cost-model counter). */
    std::uint64_t totalEventsScheduled() const;

    /** Largest Reservation lookahead over every partition queue. */
    Tick maxBookingLookahead() const;

  private:
    /**
     * Drain every mailbox into its receiver queue. Barrier-only (all
     * workers parked). Order: to-partition major, from-partition minor,
     * FIFO within an edge — a pure function of simulation state.
     */
    void drainMailboxes();

    /**
     * Start the next round: drain mail, find the global minimum N,
     * set bound_ = N + lookahead. False when globally idle or N > limit.
     */
    bool beginRound(Tick limit);

    /** Run all device windows up to @p cap; returns events executed. */
    std::uint64_t runDeviceWindows(Tick cap);

    /** Run executor @p ex's share of device windows up to @p cap. */
    std::uint64_t runExecutor(unsigned ex, Tick cap);

    void workerMain(unsigned ex);

    /** queues_[0] is the host; [1..D] the devices. Non-owning. */
    std::vector<EventQueue *> queues_;
    /** (from, to) edge matrix, row-major: index from * P + to. */
    std::vector<Mailbox> mailboxes_;
    Tick lookahead_;
    unsigned executors_;

    /** Undrained cross-partition messages (all edges). */
    std::atomic<std::uint64_t> mail_pending_{0};

    // Resumable round state (touched only by the coordinating thread).
    Tick bound_ = 0;           ///< exclusive upper edge of the open round
    bool round_active_ = false;
    unsigned dev_cursor_ = 1;  ///< serial single-step scan position
    bool devices_done_ = false;

    // Worker pool: generation-counted barrier.
    std::mutex pool_mu_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    std::uint64_t generation_ = 0;
    unsigned done_ = 0;
    Tick cap_ = 0;
    bool quit_ = false;
    std::vector<std::uint64_t> worker_executed_;
    std::vector<std::thread> workers_;
};

} // namespace m2ndp
