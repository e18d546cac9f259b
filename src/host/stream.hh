/**
 * @file
 * Stream-based offload API: typed launch descriptors, pollable completion
 * events, and in-order command streams.
 *
 * The paper's launch path is cheap enough (Fig. 5a: one CXL.mem store plus
 * one deferred load) that the host-side software stack becomes the
 * bottleneck if it allocates or round-trips per launch. This layer keeps
 * the host side allocation-free in steady state:
 *
 *  - `LaunchDesc` holds kernel id, pool region and up to 32 B of
 *    arguments inline — no intermediate std::vector. The runtime
 *    serializes it with the M2func launch codec (`LaunchWire`,
 *    ndp/ndp_controller.hh) straight into the payload it stores.
 *  - `NdpStream` is an in-order launch queue bound to (runtime, device).
 *    A stream issues one launch at a time; the next queued launch is
 *    released when the previous kernel instance completes. Concurrency
 *    comes from using multiple streams (Section III-C: concurrent kernels
 *    from multiple host threads, as with MPS).
 *  - `NdpEvent` is a pollable/awaitable completion handle returned by
 *    `NdpStream::launch`. It replaces the old
 *    `std::function<void(int64_t, Tick)>` completion callback. Launch
 *    records backing events are slab-pooled and recycled once the kernel
 *    completed and the handle was dropped.
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "common/callback.hh"
#include "common/error.hh"
#include "common/intrusive_fifo.hh"
#include "common/log.hh"
#include "common/units.hh"

namespace m2ndp {

class NdpRuntime;
class NdpStream;
struct LaunchRecord;

/**
 * How a stream reacts when a launch completes with an error (a kernel
 * trap, watchdog kill, device rejection, or lost device).
 */
enum class StreamPolicy : std::uint8_t {
    /**
     * Default: the failed launch reports its error and every launch still
     * queued on the stream completes immediately with NdpError::Aborted —
     * dependent work never runs against a failed predecessor.
     */
    FailFast,
    /**
     * Re-issue the failed launch after an exponential backoff (base delay
     * doubling per attempt) up to the configured retry cap; the re-issue
     * re-routes around lost devices. Exhausted retries surface the final
     * error and the stream continues with the next launch.
     */
    Retry,
    /** Report the error on the failed launch and keep going. */
    SkipAndContinue,
};

/**
 * Typed launch descriptor: kernel handle, pool region and the inline
 * arguments of one launch (Section III-B). Host-side only; the runtime
 * encodes it into the M2func wire format.
 */
class LaunchDesc
{
  public:
    /** Arguments beyond 32 B must travel through memory (Section III-C);
     *  equal to LaunchWire::kMaxArgBytes, the full layout's capacity. */
    static constexpr unsigned kMaxArgBytes = 32;

    LaunchDesc() = default;

    LaunchDesc(std::int64_t kernel, Addr pool_base, Addr pool_bound)
        : kernel_(kernel), base_(pool_base), bound_(pool_bound)
    {
    }

    /** Append one little-endian 64-bit argument. */
    LaunchDesc &
    arg(std::uint64_t v)
    {
        return args(&v, 8);
    }

    /** Append raw argument bytes. */
    LaunchDesc &
    args(const void *data, std::size_t size)
    {
        M2_ASSERT(nargs_ + size <= kMaxArgBytes,
                  "kernel args exceed the 64 B launch payload; pass a "
                  "pointer to memory instead (Section III-C)");
        std::memcpy(arg_bytes_.data() + nargs_, data, size);
        nargs_ += static_cast<std::uint8_t>(size);
        return *this;
    }

    std::int64_t kernel() const { return kernel_; }
    Addr poolBase() const { return base_; }
    Addr poolBound() const { return bound_; }
    const std::uint8_t *argData() const { return arg_bytes_.data(); }
    std::uint8_t argSize() const { return nargs_; }

  private:
    std::int64_t kernel_ = -1;
    Addr base_ = 0;
    Addr bound_ = 0;
    std::uint8_t nargs_ = 0;
    std::array<std::uint8_t, kMaxArgBytes> arg_bytes_{};
};

/** Completion notification: (instance id or error, completion tick). */
using LaunchCallback = InlineCallback<void(std::int64_t, Tick)>;

/**
 * One launch in flight (or queued, or completed). Slab-pooled by the
 * runtime; reached through `NdpEvent` handles and the stream FIFO.
 * Reference-counted: one reference held by the runtime until completion,
 * one by the event handle until it is dropped.
 */
struct LaunchRecord
{
    LaunchRecord *next = nullptr; ///< stream FIFO / slot-wait / freelist
    NdpRuntime *rt = nullptr;
    NdpStream *stream = nullptr; ///< null for direct sync launches
    LaunchDesc desc;
    unsigned device = 0;
    unsigned slot = 0; ///< M2func launch slot while in flight
    /** Absolute sim-time deadline resolved at submit (0 = none). */
    Tick deadline = 0;
    std::uint8_t refs = 0;
    /** Issue attempts consumed so far (StreamPolicy::Retry bookkeeping). */
    std::uint8_t attempts = 0;
    /** WRR priority inherited from the owning stream at submit. */
    std::uint8_t weight = 1;
    bool done = false;
    std::int64_t instance_id = -1;
    /**
     * M2func return value, carried by the deferred return-value read's
     * S2M DRS (filled on the device partition at response formation;
     * quiescent until the read's completion callback fires on the host).
     */
    std::int64_t m2f_ret = -1;
    Tick completed_at = 0;
    /** Optional completion hook (fires once, at completion tick). */
    LaunchCallback on_complete;
};

/**
 * Pollable/awaitable handle for one launch. Move-only; dropping the handle
 * releases the underlying pooled record (once the launch also completed).
 */
class NdpEvent
{
  public:
    NdpEvent() = default;
    ~NdpEvent() { release(); }

    NdpEvent(NdpEvent &&other) noexcept
        : rt_(other.rt_), rec_(other.rec_)
    {
        other.rt_ = nullptr;
        other.rec_ = nullptr;
    }

    NdpEvent &
    operator=(NdpEvent &&other) noexcept
    {
        if (this != &other) {
            release();
            rt_ = other.rt_;
            rec_ = other.rec_;
            other.rt_ = nullptr;
            other.rec_ = nullptr;
        }
        return *this;
    }

    NdpEvent(const NdpEvent &) = delete;
    NdpEvent &operator=(const NdpEvent &) = delete;

    /** True if this handle refers to a launch. */
    bool valid() const { return rec_ != nullptr; }

    /** Non-blocking completion poll. */
    bool done() const;

    /** Device the launch was routed to. */
    unsigned device() const;

    /** Kernel instance id (or negative error); valid once done(). */
    std::int64_t instanceId() const;

    /** True once the launch completed with an error. */
    bool failed() const;

    /**
     * Typed error code: NdpError::Ok while pending or after a clean
     * completion, the specific error otherwise.
     */
    NdpError error() const;

    /** Tick the kernel instance completed at; valid once done(). */
    Tick completedAt() const;

    /**
     * Drive the simulation until the launch completes.
     * @return the instance id (or negative error code).
     */
    std::int64_t wait();

    /**
     * Attach a completion hook: fires with (instance id, tick) when the
     * kernel completes — immediately if it already did. At most one hook
     * per launch. The hook capture must fit the 48 B inline buffer for
     * the host path to stay allocation-free.
     */
    void onComplete(LaunchCallback cb);

  private:
    friend class NdpRuntime;
    friend class NdpStream;
    NdpEvent(NdpRuntime *rt, LaunchRecord *rec) : rt_(rt), rec_(rec) {}

    void release();

    NdpRuntime *rt_ = nullptr;
    LaunchRecord *rec_ = nullptr;
};

/**
 * In-order launch queue bound to (runtime, device). Launches submitted to
 * the same stream execute one after another; launches on different streams
 * (or different devices) run concurrently. Create via
 * `NdpRuntime::createStream`.
 */
class NdpStream
{
  public:
    /**
     * Default bound on launches queued (accepted but not yet issued) per
     * stream. A full queue rejects further launches with
     * NdpError::Overloaded at submit time — queues never grow silently
     * without bound (docs/robustness.md "Overload protection").
     */
    static constexpr unsigned kDefaultQueueLimit = 1024;

    /**
     * Enqueue a launch; returns its completion event. If the stream's
     * bounded queue is full the event completes immediately with
     * NdpError::Overloaded (admission rejection — it does not trip the
     * fail-fast policy, since no issued launch failed).
     */
    NdpEvent launch(const LaunchDesc &desc);

    /**
     * Set the error-handling policy. For StreamPolicy::Retry,
     * @p max_retries bounds the re-issues per launch and @p backoff is
     * the first retry delay (doubling each attempt). Applies to launches
     * completing after the call.
     */
    void
    setPolicy(StreamPolicy policy, unsigned max_retries = 3,
              Tick backoff = 1 * kUs)
    {
        policy_ = policy;
        max_retries_ = static_cast<std::uint8_t>(max_retries);
        retry_backoff_ = backoff;
    }

    StreamPolicy policy() const { return policy_; }

    /**
     * Weighted-round-robin priority (1..255, default 1) applied to
     * launches submitted after the call: the device controller's pullWork
     * cursor serves an instance `weight` consecutive spawns per visit, so
     * a weight-2 stream draws ~2x the issue share of a weight-1 stream
     * under contention.
     */
    void
    setPriority(unsigned weight)
    {
        priority_ = static_cast<std::uint8_t>(
            weight == 0 ? 1 : (weight > 255 ? 255 : weight));
    }

    unsigned priority() const { return priority_; }

    /**
     * Relative deadline applied at submit to every launch on the
     * stream: absolute deadline = submit tick + @p rel.
     * 0 (default) disables. Expired launches are shed with
     * NdpError::DeadlineExceeded instead of occupying the device.
     */
    void setDeadline(Tick rel) { default_deadline_ = rel; }

    /** Cap on queued (not yet issued) launches; 0 = unbounded. */
    void setQueueLimit(unsigned depth) { queue_limit_ = depth; }

    /** Launches currently queued behind the in-flight one. */
    unsigned queued() const { return static_cast<unsigned>(queue_.size()); }

    /** Drive the simulation until every launch on this stream completed. */
    void synchronize();

    unsigned device() const { return device_; }
    std::uint64_t launched() const { return launched_; }
    std::uint64_t completed() const { return completed_; }

    /** Launches accepted but not yet completed (queued + in flight). */
    std::uint64_t pending() const { return launched_ - completed_; }

    /** True when no launch is queued or in flight. */
    bool idle() const { return launched_ == completed_; }

    NdpStream(const NdpStream &) = delete;
    NdpStream &operator=(const NdpStream &) = delete;

  private:
    friend class NdpRuntime;
    NdpStream(NdpRuntime &rt, unsigned device) : rt_(rt), device_(device) {}

    /** Issue the queue head if nothing from this stream is in flight. */
    void pump();

    /** Completion notification from the runtime. */
    void recordCompleted(LaunchRecord *rec);

    /** Fail-fast: complete every queued launch with NdpError::Aborted. */
    void abortQueued(Tick now);

    NdpRuntime &rt_;
    unsigned device_;
    IntrusiveFifo<LaunchRecord> queue_; ///< not yet issued
    bool in_flight_ = false;
    std::uint64_t launched_ = 0;
    std::uint64_t completed_ = 0;
    unsigned queue_limit_ = kDefaultQueueLimit;
    Tick default_deadline_ = 0; ///< relative; 0 = none
    StreamPolicy policy_ = StreamPolicy::FailFast;
    std::uint8_t priority_ = 1;
    std::uint8_t max_retries_ = 3;
    Tick retry_backoff_ = 1 * kUs;
};

} // namespace m2ndp
