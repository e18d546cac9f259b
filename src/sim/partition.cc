#include "sim/partition.hh"

#include <algorithm>

namespace m2ndp {

SimDomain::SimDomain(EventQueue &host, std::vector<EventQueue *> devices,
                     Tick lookahead, unsigned threads)
    : lookahead_(lookahead)
{
    M2_ASSERT(lookahead_ > 0, "partitioned simulation needs lookahead > 0");
    queues_.reserve(devices.size() + 1);
    queues_.push_back(&host);
    for (EventQueue *q : devices)
        queues_.push_back(q);
    mailboxes_ = std::vector<Mailbox>(queues_.size() * queues_.size());

    unsigned num_devices = static_cast<unsigned>(devices.size());
    executors_ = std::max(1u, std::min(threads, num_devices));
    worker_executed_.assign(executors_, 0);
    workers_.reserve(executors_ - 1);
    for (unsigned ex = 1; ex < executors_; ++ex)
        workers_.emplace_back([this, ex] { workerMain(ex); });
}

SimDomain::~SimDomain()
{
    {
        std::lock_guard<std::mutex> g(pool_mu_);
        quit_ = true;
    }
    cv_work_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
SimDomain::drainMailboxes()
{
    if (mail_pending_.load(std::memory_order_acquire) == 0)
        return;
    const unsigned P = partitions();
    std::uint64_t drained = 0;
    for (unsigned to = 0; to < P; ++to) {
        EventQueue *q = queues_[to];
        for (unsigned from = 0; from < P; ++from) {
            Mailbox &mb = mailboxes_[from * P + to];
            std::lock_guard<std::mutex> g(mb.mu_);
            for (MailMsg &m : mb.pending_) {
                q->scheduleCallback(m.when, std::move(m.cb));
                ++drained;
            }
            mb.pending_.clear(); // keeps capacity: warm drains allocate 0
        }
    }
    mail_pending_.fetch_sub(drained, std::memory_order_release);
}

bool
SimDomain::beginRound(Tick limit)
{
    drainMailboxes();
    Tick next = kTickMax;
    for (EventQueue *q : queues_)
        next = std::min(next, q->nextEventTick());
    if (next == kTickMax || next > limit)
        return false;
    bound_ = next > kTickMax - lookahead_ ? kTickMax : next + lookahead_;
    round_active_ = true;
    dev_cursor_ = 1;
    devices_done_ = false;
    return true;
}

std::uint64_t
SimDomain::runExecutor(unsigned ex, Tick cap)
{
    std::uint64_t executed = 0;
    for (unsigned i = 1; i < queues_.size(); ++i)
        if ((i - 1) % executors_ == ex)
            executed += queues_[i]->runWindow(cap);
    return executed;
}

std::uint64_t
SimDomain::runDeviceWindows(Tick cap)
{
    if (executors_ == 1) {
        std::uint64_t executed = 0;
        for (unsigned i = 1; i < queues_.size(); ++i)
            executed += queues_[i]->runWindow(cap);
        return executed;
    }
    {
        std::lock_guard<std::mutex> g(pool_mu_);
        cap_ = cap;
        done_ = 0;
        ++generation_;
    }
    cv_work_.notify_all();
    std::uint64_t executed = runExecutor(0, cap);
    {
        std::unique_lock<std::mutex> g(pool_mu_);
        cv_done_.wait(g, [this] { return done_ == executors_ - 1; });
    }
    for (unsigned ex = 1; ex < executors_; ++ex)
        executed += worker_executed_[ex];
    return executed;
}

void
SimDomain::workerMain(unsigned ex)
{
    std::uint64_t seen = 0;
    for (;;) {
        Tick cap;
        {
            std::unique_lock<std::mutex> g(pool_mu_);
            cv_work_.wait(g,
                          [&] { return quit_ || generation_ != seen; });
            if (quit_)
                return;
            seen = generation_;
            cap = cap_;
        }
        std::uint64_t executed = runExecutor(ex, cap);
        {
            std::lock_guard<std::mutex> g(pool_mu_);
            worker_executed_[ex] = executed;
            ++done_;
        }
        cv_done_.notify_one();
    }
}

bool
SimDomain::driveStep()
{
    for (;;) {
        if (!round_active_ && !beginRound(kTickMax))
            return false; // globally idle
        if (!devices_done_) {
            if (executors_ > 1) {
                devices_done_ = true;
                if (runDeviceWindows(bound_) > 0)
                    return true;
            } else {
                // One event per call: scan device partitions in index
                // order — equivalent to the parallel schedule, because
                // partitions cannot interact within a round.
                while (dev_cursor_ < queues_.size()) {
                    if (queues_[dev_cursor_]->stepWindow(bound_))
                        return true;
                    ++dev_cursor_;
                }
                devices_done_ = true;
            }
        }
        if (queues_[kHost]->stepWindow(bound_))
            return true;
        round_active_ = false; // round drained; open the next one
    }
}

std::uint64_t
SimDomain::driveRun(Tick limit)
{
    std::uint64_t executed = 0;
    for (;;) {
        if (!round_active_ && !beginRound(limit))
            break;
        // Run events with when <= limit only; a round reaching past the
        // limit stays open and resumes when run is called with a larger
        // limit (runWindow is idempotent over the already-empty prefix).
        Tick cap = bound_;
        bool partial = false;
        if (limit != kTickMax && limit + 1 < bound_) {
            cap = limit + 1;
            partial = true;
        }
        executed += runDeviceWindows(cap);
        executed += queues_[kHost]->runWindow(cap);
        if (partial) {
            dev_cursor_ = 1;
            devices_done_ = false;
            break;
        }
        round_active_ = false;
    }
    // Serial run(limit) parity: a bounded run leaves every queue's clock
    // at the limit when nothing is pending at or before it.
    if (limit != kTickMax) {
        for (EventQueue *q : queues_)
            if (q->now_ < limit && q->nextEventTick() > limit)
                q->now_ = limit;
    }
    return executed;
}

bool
SimDomain::driveEmpty() const
{
    if (mail_pending_.load(std::memory_order_acquire) != 0)
        return false;
    for (const EventQueue *q : queues_)
        if (q->pending() != 0)
            return false;
    return true;
}

std::uint64_t
SimDomain::engineChecksum() const
{
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull; // FNV prime
    };
    for (const EventQueue *q : queues_) {
        mix(q->now_);
        mix(q->scheduled_total_);
        mix(q->seq_);
    }
    for (const Mailbox &mb : mailboxes_)
        mix(mb.posted_);
    return h;
}

std::uint64_t
SimDomain::totalEventsScheduled() const
{
    std::uint64_t total = 0;
    for (const EventQueue *q : queues_)
        total += q->scheduled_total_;
    return total;
}

Tick
SimDomain::maxBookingLookahead() const
{
    Tick max = 0;
    for (const EventQueue *q : queues_)
        max = std::max(max, q->maxBookingLookahead());
    return max;
}

} // namespace m2ndp
