/**
 * @file
 * Host-side CXL.mem port.
 *
 * Models the host processor's view of one CXL memory expander: load/store
 * instructions to HDM addresses become M2S Req/RwD packets over the link.
 * Host-side overhead (core -> cache-miss path -> CXL root port) is a fixed
 * cost, kHostOverhead, which SystemConfig::linkForLoadToUse folds into
 * the idle load-to-use latency of Table IV (150 ns default; 300/600 ns
 * variants).
 *
 * Accesses in flight are carried by slab-pooled `HostAccess` records: the
 * write payload (at most the one 64 B line a CXL.mem RwD carries) and the
 * completion callback live on the record, so every event scheduled along
 * the issue -> link -> device -> link -> completion chain captures only
 * the record pointer and stays within the 48 B inline buffer. A warm host
 * access performs zero heap allocations end to end.
 *
 * Blocking helpers drive the event queue until the access completes, so
 * examples read as ordinary sequential host code.
 */

#pragma once

#include <cstdint>

#include "common/slab_pool.hh"
#include "cxl/link.hh"
#include "device/cxl_memory_expander.hh"
#include "sim/event_queue.hh"
#include "sim/partition.hh"

namespace m2ndp {

/** One-sided host overhead per access, paid on issue and on completion. */
inline constexpr Tick kHostOverhead = 10 * kNs;

/** Host traffic statistics. */
struct HostPortStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Accesses aborted because the CXL link went down. */
    std::uint64_t link_aborts = 0;
};

class HostCxlPort
{
  public:
    /**
     * @param eq    the host partition's queue (issue/completion side)
     * @param link  the CXL.mem link to the device
     * @param dev   the device (its own queue runs the device-side stages)
     * @param domain  partition coordinator for cross-partition posts
     * @param device_partition  the device's partition id in @p domain
     */
    HostCxlPort(EventQueue &eq, CxlLink &link, CxlMemoryExpander &dev,
                SimDomain &domain, unsigned device_partition);
    ~HostCxlPort();

    HostCxlPort(const HostCxlPort &) = delete;
    HostCxlPort &operator=(const HostCxlPort &) = delete;

    /**
     * Async CXL.mem write (M2S RwD) of at most 64 B. The payload is
     * copied onto a pooled access record. @p done (optional) fires when
     * the NDR returns.
     */
    void writeAsync(Addr hpa, const void *data, std::uint32_t size,
                    TickCallback done);

    /** Async CXL.mem read (M2S Req). @p done fires when data arrives. */
    void readAsync(Addr hpa, std::uint32_t size, TickCallback done);

    /**
     * Async CXL.mem read that also delivers the data: @p out is filled
     * with the functional bytes the S2M DRS carries (captured on the
     * device at response-formation time) before @p done fires. @p out
     * must stay valid until completion and is written from the device
     * partition while the access is in flight — treat it as untouchable
     * until @p done.
     */
    void readAsync(Addr hpa, std::uint32_t size, void *out,
                   TickCallback done);

    /** Blocking write: returns the completion tick. */
    Tick write(Addr hpa, const void *data, std::uint32_t size);

    /** Blocking read: fills @p out from functional memory at completion. */
    Tick read(Addr hpa, void *out, std::uint32_t size);

    template <typename T>
    T
    read(Addr hpa)
    {
        T v{};
        read(hpa, &v, sizeof(T));
        return v;
    }

    template <typename T>
    Tick
    write(Addr hpa, const T &v)
    {
        return write(hpa, &v, sizeof(T));
    }

    /**
     * Cross-partition plumbing for the CXL.io baseline schemes: post
     * work onto the device partition (from the host side) or back onto
     * the host partition (from device-side completion hooks) at absolute
     * tick @p when. @p when must respect the conservative-lookahead
     * contract (at least one link one-way past the sender's clock);
     * collapses to direct scheduling when the simulation is unsharded.
     */
    void postToDeviceAt(Tick when, EventCallback cb);
    void postToHostAt(Tick when, EventCallback cb);

    /** The device partition's queue (== eventQueue() unsharded). */
    EventQueue &deviceQueue() { return dev_eq_; }

    CxlMemoryExpander &device() { return dev_; }
    CxlLink &link() { return link_; }
    EventQueue &eventQueue() { return eq_; }
    const HostPortStats &stats() const { return stats_; }

    /** Access records currently in flight (pool-leak checks in tests). */
    std::size_t liveAccesses() const { return access_pool_.live(); }

  private:
    /**
     * One host access in flight. Pool-recycled; all chained events capture
     * only the record pointer.
     */
    struct HostAccess
    {
        /** Write payload bytes: one RwD carries one 64 B line. */
        static constexpr std::uint32_t kInlineBytes = 64;

        HostAccess *next = nullptr; ///< freelist link
        HostCxlPort *port = nullptr;
        Addr hpa = 0;
        std::uint32_t size = 0;
        bool is_write = false;
        /** Aborted mid-chain because the link went down. */
        bool failed = false;
        /** Destination for read data, filled at DRS formation. */
        void *read_out = nullptr;
        TickCallback done;
        std::uint8_t inline_data[kInlineBytes];
    };

    HostAccess *allocAccess();
    void releaseAccess(HostAccess *a);

    /**
     * Link-down short-circuit on host-side chain stages: the access is
     * finished immediately with `failed` set, so the record recycles
     * and the completion callback always fires — a dead link never
     * wedges or leaks an in-flight access.
     */
    bool abortIfDown(HostAccess *a);

    /**
     * Device-side flavor: checked against the device partition's clock;
     * the failed completion travels back to the host partition at the
     * link's one-way latency (the timeout path is not modeled finer).
     */
    bool abortIfDownAtDevice(HostAccess *a);

    // One chain for both directions, switched on HostAccess::is_write:
    // issue -> link -> device -> NDR (write) or DRS (read) -> completion.
    // deliver runs on the host partition; atDevice, deviceDone and
    // respond on the device partition; finish back on the host.
    void deliver(HostAccess *a);
    void atDevice(HostAccess *a);
    void deviceDone(HostAccess *a, Tick t);
    void respond(HostAccess *a);
    void finish(HostAccess *a);

    EventQueue &eq_;      ///< host partition queue
    EventQueue &dev_eq_;  ///< device partition queue
    CxlLink &link_;
    CxlMemoryExpander &dev_;
    SimDomain &domain_;
    unsigned dev_pid_;
    HostPortStats stats_;

    SlabPool<HostAccess> access_pool_;
};

} // namespace m2ndp
