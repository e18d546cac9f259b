/**
 * @file
 * Top-level system assembly: host + CXL links + one or more CXL-M2NDP
 * devices, following Table IV. Also wires cross-device P2P routing through
 * the (optional) CXL switch (Sections III-I/J).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/slab_pool.hh"
#include "cxl/link.hh"
#include "device/cxl_memory_expander.hh"
#include "host/host.hh"
#include "host/runtime.hh"
#include "mem/page_table.hh"
#include "mem/sparse_memory.hh"
#include "sim/event_queue.hh"
#include "sim/partition.hh"

namespace m2ndp {

/** System-level configuration. */
struct SystemConfig
{
    unsigned num_devices = 1;
    DeviceConfig device;   ///< template; index set per device
    CxlLinkConfig link;    ///< per-device link
    /**
     * Link fault injection (disabled by default). `fault.seed` is the
     * base seed; each device's link gets an independent seed derived
     * from it, so multi-device fault schedules are decorrelated yet
     * fully determined by the base seed.
     */
    FaultConfig fault;

    /**
     * Simulation executor threads for the partitioned engine: the host
     * plus each device own an EventQueue, advanced in conservative
     * lookahead rounds (sim/partition.hh); results are bit-exact for any
     * value. 1 = serial; N > 1 spreads the device partitions over
     * min(N, num_devices) threads; 0 = auto (the M2NDP_THREADS
     * environment variable, else serial).
     */
    unsigned threads = 0;

    /**
     * Build a link config whose idle load-to-use latency is @p ltu
     * (Table IV: 150 / 300 / 600 ns). Calibrated against the measured
     * breakdown: 2x host overhead (kHostOverhead) + 2x(stack+wire) +
     * device-internal access.
     */
    static CxlLinkConfig linkForLoadToUse(Tick ltu);
};

/** The assembled system. */
class System
{
  public:
    explicit System(SystemConfig cfg);
    ~System();

    EventQueue &eq() { return eq_; }
    SparseMemory &mem() { return mem_; }
    /** The partition coordinator (always present, even single-threaded). */
    SimDomain &domain() { return *domain_; }
    /** Device partition @p i's queue. */
    EventQueue &deviceQueue(unsigned i = 0) { return *device_queues_[i]; }

    /**
     * Thread-count-invariant digest of the whole engine's state: identical
     * for serial and N-thread runs of the same seed and workload.
     */
    std::uint64_t engineChecksum() const { return domain_->engineChecksum(); }
    /** Events scheduled across all partitions (events/inst cost model). */
    std::uint64_t
    totalEventsScheduled() const
    {
        return domain_->totalEventsScheduled();
    }
    /** Largest Reservation lookahead over every partition queue. */
    Tick maxBookingLookahead() const { return domain_->maxBookingLookahead(); }

    unsigned numDevices() const { return static_cast<unsigned>(devices_.size()); }
    CxlMemoryExpander &device(unsigned i = 0) { return *devices_[i]; }
    HostCxlPort &host(unsigned i = 0) { return *host_ports_[i]; }
    CxlLink &link(unsigned i = 0) { return *links_[i]; }
    const SystemConfig &config() const { return cfg_; }

    /** Create a process address space spanning all devices. */
    ProcessAddressSpace &createProcess();

    /**
     * Create the user-level runtime for @p process, spanning every device
     * in the system: performs the one-time CXL.io initialization (M2func
     * region allocation + packet-filter entry, Section III-B) on each
     * device. Streams created from the runtime route launches to their
     * bound device.
     */
    std::unique_ptr<NdpRuntime> createRuntime(ProcessAddressSpace &process,
                                              NdpRuntimeConfig cfg = {});

    // ---- functional data movement for workload setup (no timing) ----
    void writeVirtual(const ProcessAddressSpace &process, Addr va,
                      const void *data, std::uint64_t size);
    void readVirtual(const ProcessAddressSpace &process, Addr va, void *out,
                     std::uint64_t size) const;

    template <typename T>
    void
    writeVirtual(const ProcessAddressSpace &process, Addr va, const T &v)
    {
        writeVirtual(process, va, &v, sizeof(T));
    }

    template <typename T>
    T
    readVirtual(const ProcessAddressSpace &process, Addr va) const
    {
        T v{};
        readVirtual(process, va, &v, sizeof(T));
        return v;
    }

    /** Run until the event queue drains (or @p limit). */
    void run(Tick limit = kTickMax) { eq_.run(limit); }

  private:
    SystemConfig cfg_;
    EventQueue eq_; ///< host partition queue (drives the whole domain)
    SparseMemory mem_;
    /** One queue per device partition (declared before their users). */
    std::vector<std::unique_ptr<EventQueue>> device_queues_;
    std::vector<std::unique_ptr<CxlMemoryExpander>> devices_;
    std::vector<std::unique_ptr<CxlLink>> links_;
    /** Destroyed after the ports (they post through it), before queues. */
    std::unique_ptr<SimDomain> domain_;
    std::vector<std::unique_ptr<HostCxlPort>> host_ports_;
    std::vector<std::unique_ptr<PhysAllocator>> allocators_;
    std::vector<std::unique_ptr<ProcessAddressSpace>> processes_;
    Asid next_asid_ = 1;

    /**
     * In-flight P2P switch route. The forwarded TickCallback alone is
     * 56 B, so capturing it through the request/response hop lambdas
     * would overflow the InlineCallback inline buffer and heap-allocate
     * on every hop; each route rides one pooled node instead and the hop
     * captures stay at two pointers. Nodes are acquired and released on
     * the source device's partition (the response is posted back there
     * before release), so the per-device pools need no locking under
     * M2NDP_THREADS.
     */
    struct P2pRoute
    {
        P2pRoute *next = nullptr; ///< slab freelist link
        unsigned src = 0;
        unsigned target = 0;
        MemOp op{};
        Addr pa = 0;
        std::uint32_t size = 0;
        TickCallback done;
    };
    /** One pool per source device partition. */
    std::vector<std::unique_ptr<SlabPool<P2pRoute>>> p2p_pools_;
};

} // namespace m2ndp
