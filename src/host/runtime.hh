/**
 * @file
 * User-level library API for M2NDP (Table II) plus the conventional
 * CXL.io/PCIe offloading schemes used as baselines (Section II-C, Fig. 5).
 *
 * With the M2func scheme, every API call is genuinely implemented as
 * CXL.mem accesses to the process' M2func region: a store carrying the
 * function arguments, a fence, and a load fetching the return value —
 * exactly the protocol of Section III-B. The user never sees offsets or
 * packet formats, mirroring the paper's API design goal.
 *
 * Launches go through command streams (`NdpStream`, host/stream.hh): an
 * in-order queue per stream, concurrency across streams, and pollable
 * `NdpEvent` completion handles. One runtime spans every device in the
 * system; streams route launches to their bound device, so multi-expander
 * workloads drive all devices from a single runtime. Launch records are
 * slab-pooled and every hot-path callback fits the 48 B inline buffer, so
 * a warm launch burst performs zero heap allocations on the host side.
 *
 * The CXL.io ring-buffer (RB) and direct-MMIO (DR) schemes charge the
 * observed end-to-end latencies of the conventional mechanisms; DR
 * additionally serializes kernels (dedicated device registers cannot be
 * shared, Section III-C) — reproducing its throughput collapse (Fig. 11a).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/intrusive_fifo.hh"
#include "common/slab_pool.hh"
#include "host/host.hh"
#include "host/stream.hh"
#include "mem/page_table.hh"
#include "ndp/kernel.hh"
#include "ndp/ndp_controller.hh"

namespace m2ndp {

/** Which host<->device offloading mechanism to use. */
enum class OffloadScheme : std::uint8_t {
    M2Func,          ///< CXL.mem memory-mapped functions (this paper)
    CxlIoRingBuffer, ///< conventional ring buffer + doorbell (Fig. 5b)
    CxlIoDirect,     ///< dedicated device registers via MMIO (Fig. 5c)
};

const char *offloadSchemeName(OffloadScheme scheme);

/** Runtime configuration. */
struct NdpRuntimeConfig
{
    OffloadScheme scheme = OffloadScheme::M2Func;
    CxlIoConfig io; ///< CXL.io one-way latency for the baseline schemes

    // ---- admission control / QoS (docs/robustness.md) ----

    /**
     * Bound on launches waiting for an M2func slot per device. Launches
     * arriving at a full device queue complete with NdpError::Overloaded
     * — including failovers, so a surviving device's admission limit
     * holds when its peers die. 0 disables the bound.
     */
    unsigned device_queue_limit = 1024;
    /**
     * Per-tenant token-bucket rate limit in launches/second (0 = off).
     * Launches (and retries — no retry storms) that find the bucket
     * empty wait, in arrival order, for the next token accrual; the
     * delay is sim-time deterministic.
     */
    double rate_limit = 0.0;
    /** Token-bucket depth: burst allowance in launches. */
    unsigned rate_burst = 16;
};

/** Per-runtime statistics. */
struct NdpRuntimeStats
{
    std::uint64_t launches = 0;
    std::uint64_t completions = 0;
    /** Launches in flight right now / high-water mark. */
    std::uint64_t in_flight = 0;
    std::uint64_t peak_in_flight = 0;
    /** Launches re-issued by StreamPolicy::Retry after an error. */
    std::uint64_t relaunches = 0;
    /** Launches re-routed from a lost device to a healthy one. */
    std::uint64_t failovers = 0;
    /** Devices marked lost (link permanently down). */
    std::uint64_t devices_lost = 0;
    /** Launches that completed with a negative (error) instance id. */
    std::uint64_t faulted_completions = 0;
    /** Queued launches aborted by fail-fast streams. */
    std::uint64_t aborted_launches = 0;
    /** Launches rejected by a full bounded queue (NdpError::Overloaded). */
    std::uint64_t overload_rejections = 0;
    /** Launches shed with an expired deadline (DeadlineExceeded). */
    std::uint64_t deadline_shed = 0;
    /** Launches delayed by the tenant token bucket before issue. */
    std::uint64_t throttled_launches = 0;
    /** 64 B M2func stores that carried two compact launches. */
    std::uint64_t batched_stores = 0;
};

/**
 * The user-level runtime bound to one process, spanning every device in
 * the system. Construct via System::createRuntime so the per-device
 * M2func regions are installed first.
 */
class NdpRuntime
{
  public:
    /** One (port, M2func region) pair per device. */
    NdpRuntime(std::vector<HostCxlPort *> ports,
               ProcessAddressSpace &process,
               std::vector<Addr> m2func_region_pas,
               NdpRuntimeConfig cfg = {});
    ~NdpRuntime();

    NdpRuntime(const NdpRuntime &) = delete;
    NdpRuntime &operator=(const NdpRuntime &) = delete;

    /**
     * Table II: ndpRegisterKernel. Writes the kernel source text into CXL
     * memory, then calls the register function — on every device, so the
     * returned kernel handle is launchable from any stream. Blocking.
     * @return kernel handle, or negative on error.
     */
    std::int64_t registerKernel(const std::string &source,
                                const KernelResources &res);

    /** Table II: ndpUnregisterKernel (all devices). Blocking. */
    std::int64_t unregisterKernel(std::int64_t kernel_id);

    /**
     * Create an in-order command stream bound to @p device. The stream is
     * owned by the runtime and lives as long as it.
     */
    NdpStream &createStream(unsigned device = 0);

    /**
     * Table II: ndpLaunchKernel (synchronous). Blocks until the kernel
     * completes (the return-value read is held by the device).
     * @return kernel instance id, or negative on error.
     */
    std::int64_t launchKernelSync(const LaunchDesc &desc,
                                  unsigned device = 0);

    /** Table II: ndpPollKernelStatus. Blocking. */
    KernelStatus pollKernelStatus(std::int64_t instance_id,
                                  unsigned device = 0);

    /** Table II: ndpShootdownTlbEntry (privileged, all devices). */
    std::int64_t shootdownTlbEntry(Asid asid, Addr va);

    /** Drive the simulation until every stream of this runtime is idle. */
    void synchronize();

    unsigned numDevices() const
    {
        return static_cast<unsigned>(devs_.size());
    }

    /** True once @p device was marked lost (its CXL link went down). */
    bool
    deviceLost(unsigned device) const
    {
        return devs_.at(device).lost;
    }

    /** Launch records currently checked out of the pool (leak tests). */
    std::size_t liveLaunchRecords() const { return record_pool_.live(); }
    const NdpRuntimeStats &stats() const { return stats_; }
    ProcessAddressSpace &process() { return process_; }
    HostCxlPort &port(unsigned device = 0) { return *devs_[device].port; }

  private:
    friend class NdpStream;
    friend class NdpEvent;

    struct DeviceState
    {
        HostCxlPort *port = nullptr;
        Addr m2func_pa = 0;
        /** Runtime kernel handle -> this device's kernel id. */
        std::vector<std::int64_t> kernel_ids;
        /**
         * Outstanding deferred return reads per M2func launch slot
         * (Section III-B slot striding). 0 = free; a batched 64 B store
         * carries two launches and holds its slot until both reads
         * return (count 2 -> 0).
         */
        std::vector<std::uint8_t> slot_pending;
        unsigned rr_slot = 0;
        /** Records waiting for a free M2func slot; its size is the
         *  admission-control bound's measure. */
        IntrusiveFifo<LaunchRecord> m2f_wait;
        /** CXL.io direct scheme: one kernel at a time (Section III-C). */
        bool direct_busy = false;
        IntrusiveFifo<LaunchRecord> direct_wait;
        /** Link went down for good; launches re-route to survivors. */
        bool lost = false;
    };

    // ---- launch-record pool ----
    void releaseRecordRef(LaunchRecord *rec);

    /** Create a record for @p desc on @p device (refs = 2). */
    LaunchRecord *makeRecord(const LaunchDesc &desc, unsigned device);

    // ---- issue path (called by streams and sync launches) ----
    void issueRecord(LaunchRecord *rec);
    /** issueRecord past the deadline/rate-limit gates. */
    void issueAdmitted(LaunchRecord *rec);
    void issueM2Func(LaunchRecord *rec);
    /** @p rec's launch as the M2func codec encodes it for @p dev. */
    LaunchWire wireOf(const DeviceState &dev, const LaunchRecord *rec) const;
    void m2funcLaunchOn(DeviceState &dev, unsigned slot, LaunchRecord *rec,
                        LaunchRecord *mate = nullptr);
    void m2funcReturned(LaunchRecord *rec, Tick t);
    void pumpM2FuncQueue(DeviceState &dev);

    // ---- admission control (docs/robustness.md "Overload protection") ----

    /** Complete @p rec with error @p err as a same-tick event (never
     *  inline — shedding a deep queue must not recurse through stream
     *  pumps). The launches/in_flight counters must already be set. */
    void failRecordAsync(LaunchRecord *rec, NdpError err);
    /** True when @p rec's sim-time deadline has already expired. */
    bool deadlineExpired(const LaunchRecord *rec) const;
    /**
     * Shed @p rec with DeadlineExceeded if its deadline expired (a typed
     * terminal completion, never retried). @return true when shed.
     */
    bool shedIfExpired(LaunchRecord *rec);
    /** Accrue tokens since the last refill (integer tick arithmetic). */
    void refillTokens();
    /** Re-issue throttled launches as tokens accrue. */
    void pumpRateLimiter();
    void scheduleRateLimiterPump();
    void issueRingBuffer(LaunchRecord *rec);
    void issueDirect(LaunchRecord *rec);
    void pumpDirectQueue(DeviceState &dev);
    /**
     * A CXL.io launch reached the device (device partition): launch it
     * and report its result to the host @p return_latency after the
     * kernel ends or is rejected.
     */
    void cxlIoArrived(LaunchRecord *rec, Tick return_latency);

    /** Mark @p rec complete, notify event/stream, release runtime ref. */
    void completeRecord(LaunchRecord *rec, std::int64_t iid, Tick t);

    // ---- device-loss handling ----

    /** Lazily notices a downed link and marks the device lost. */
    bool deviceHealthy(unsigned device);
    /** Fail queued launches of @p device and count the loss (once). */
    void markDeviceLost(unsigned device);
    /** Any healthy device index, or -1 when none remain. */
    int findHealthyDevice();

    /** Drive the event queue until @p rec completes. */
    void waitFor(LaunchRecord *rec);

    /** Resolve the runtime kernel handle for a device (kNdpErr if bad). */
    std::int64_t deviceKernelId(const DeviceState &dev,
                                std::int64_t kernel) const;

    Addr
    funcAddr(const DeviceState &dev, M2Func fn) const
    {
        return dev.m2func_pa +
               static_cast<std::uint64_t>(fn) * kM2FuncStride;
    }

    EventQueue &eq_;
    ProcessAddressSpace &process_;
    NdpRuntimeConfig cfg_;
    NdpRuntimeStats stats_;
    std::vector<DeviceState> devs_;
    std::vector<std::unique_ptr<NdpStream>> streams_;

    /** Staging area in CXL memory for kernel source text. */
    Addr code_staging_va_ = 0;
    std::int64_t next_kernel_handle_ = 1;

    // ---- per-tenant token bucket (cfg_.rate_limit) ----
    Tick tb_period_ = 0; ///< ticks per token; 0 = rate limit off
    std::uint64_t tb_tokens_ = 0;
    Tick tb_last_refill_ = 0;
    bool tb_pump_scheduled_ = false;
    /** Launches parked waiting for a token. */
    IntrusiveFifo<LaunchRecord> tb_wait_;

    /** Slab-pooled launch records (retained for the runtime lifetime). */
    SlabPool<LaunchRecord> record_pool_;
};

} // namespace m2ndp
