/**
 * @file
 * The CXL memory expander with M2NDP (Fig. 3).
 *
 * Assembles: packet filter -> {NDP controller | memory path}, 32 NDP units,
 * request/response crossbars, per-channel memory-side L2 slices, the
 * LPDDR5 DRAM device, and the DRAM-TLB region. A passive expander is the
 * same device with zero NDP units.
 *
 * Functional memory contents live in a system-wide SparseMemory (shared so
 * that P2P accesses across devices need no copying); this class owns all
 * *timing* for accesses that land in its physical window.
 *
 * Also supports the M2NDP-in-CXL-switch configuration (Section III-J):
 * with `media_over_cxl` set, the "DRAM" sits behind per-memory CXL links,
 * modeling an NDP-enabled switch in front of passive expanders (Fig. 9).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/slab_pool.hh"
#include "cxl/link.hh"
#include "cxl/packet_filter.hh"
#include "dram/dram.hh"
#include "mem/page_table.hh"
#include "mem/sparse_memory.hh"
#include "ndp/ndp_controller.hh"
#include "ndp/ndp_unit.hh"
#include "noc/crossbar.hh"
#include "sim/event_queue.hh"
#include "sim/reservation.hh"

namespace m2ndp {

/** The device values the paper sweeps (Table IV defaults); the fixed
 *  ones are constants in cxl_memory_expander.cc and layout::. */
struct DeviceConfig
{
    unsigned index = 0;

    // NDP units.
    unsigned num_units = 32;
    NdpUnitConfig unit;

    // NDP controller limits and watchdog budget.
    NdpControllerConfig controller;

    // Dirty-host-cache limit study (Fig. 13b): fraction of NDP-read data
    // requiring back-invalidation from the host cache.
    double dirty_cache_ratio = 0.0;

    // Section III-J: media behind CXL links (NDP-enabled switch).
    bool media_over_cxl = false;
    unsigned media_links = 1;
};

/** Device statistics snapshot. */
struct DeviceStats
{
    std::uint64_t host_reads = 0;
    std::uint64_t host_writes = 0;
    std::uint64_t m2func_calls = 0;
};

/** The device. */
class CxlMemoryExpander
{
  public:
    CxlMemoryExpander(EventQueue &eq, SparseMemory &global_mem,
                      DeviceConfig cfg);
    ~CxlMemoryExpander();

    // ---- host-facing CXL.mem entry points (post-link delivery) ----

    /**
     * A CXL.mem write (M2S RwD) arrived. Passes through the packet filter;
     * M2func hits go to the NDP controller, everything else is a memory
     * write. @p done fires when the NDR response may be sent. The payload
     * is consumed (written to functional memory) before this returns, so
     * the caller's buffer need not outlive the call.
     */
    void cxlWrite(Addr hpa, const void *data, std::uint32_t size,
                  TickCallback done);

    /** A CXL.mem read (M2S Req) arrived. @p done carries the data tick. */
    void cxlRead(Addr hpa, std::uint32_t size, TickCallback done);

    // ---- driver-level (CXL.io) management ----

    /** Allocate and install an M2func region for a process. @return its
     *  host-physical base address. */
    Addr allocateM2FuncRegion(Asid asid);

    /** Register a process' page table for functional translation. */
    void attachProcess(const PageTable *table);

    // ---- structural access ----
    NdpController &controller() { return *controller_; }
    const NdpController &controller() const { return *controller_; }
    NdpUnit &unit(unsigned i) { return *units_[i]; }
    const DramDevice &dram() const { return *dram_; }
    const Cache &l2Slice(unsigned i) const { return *l2_slices_[i]; }
    const Cache &l1dCache(unsigned u) const { return *l1d_[u]; }
    unsigned numL2Slices() const
    {
        return static_cast<unsigned>(l2_slices_.size());
    }
    const DeviceConfig &config() const { return cfg_; }
    const DeviceStats &deviceStats() const { return dstats_; }
    const Crossbar &requestNoc() const { return *req_xbar_; }

    Addr paBase() const { return layout::deviceBase(cfg_.index); }
    bool
    ownsPa(Addr pa) const
    {
        return pa >= paBase() && pa < paBase() + layout::kDeviceWindow;
    }

    /** Aggregate NDP-unit stats across the device. */
    NdpUnitStats aggregateUnitStats() const;

    /** Total live uthread slots right now (Fig. 6a sampling). */
    unsigned activeContexts() const;

    /** M2func call records currently checked out (leak tests). */
    std::size_t liveM2FuncCalls() const { return call_pool_.live(); }

    /**
     * Install the cross-device P2P access hook (set by the System).
     * Inline (48 B SBO, move-only): the System's route captures only its
     * `this` pointer, and the hook sits on the warm P2P access path where
     * a `std::function` would heap-allocate per installation and defeat
     * the hot-path purity rule.
     */
    using PeerAccessFn = InlineCallback<void(unsigned src_device, MemOp op,
                                             Addr pa, std::uint32_t size,
                                             TickCallback)>;
    void setPeerAccess(PeerAccessFn fn) { peer_access_ = std::move(fn); }

    /** Timing access into this device's memory from a peer device or the
     *  switch (bypasses the packet filter). */
    void peerMemAccess(MemOp op, Addr pa, std::uint32_t size,
                       TickCallback done);

    // ---- NDP-unit and controller services ----
    EventQueue &eventQueue() { return eq_; }

    /**
     * Request that unit @p unit's `tick()` runs at cycle edge @p at
     * (>= now). Requests coalesce earliest-wins. The device owns the
     * cycle driver: one shared Ticker serves every unit, and the driver
     * may consume consecutive edges in-place (run-until-stall bursts via
     * `EventQueue::tryAdvance`) instead of paying one scheduled event per
     * unit per cycle.
     */
    void requestUnitTick(unsigned unit, Tick at);

    /** Timing access from unit @p unit to device-physical address @p pa. */
    void unitMemAccess(unsigned unit, MemOp op, Addr pa, std::uint32_t size,
                       TickCallback done);

    /** Functional VA translation (nullopt = unmapped: kernel fault). */
    std::optional<Addr> translateFunctional(Asid asid, Addr va);

    /** Functional physical-memory access. */
    void funcRead(Addr pa, void *out, unsigned size)
    {
        mem_.read(pa, out, size);
    }
    void funcWrite(Addr pa, const void *in, unsigned size)
    {
        mem_.write(pa, in, size);
    }

    /** DRAM-TLB support (Section III-H). */
    Addr dramTlbEntryPa(Asid asid, Addr va);
    bool dramTlbWarm(Asid asid, Addr va);
    void dramTlbRefill(Asid asid, Addr va);

    /** Wake NDP units [0, @p count) (new work for those units only). */
    void wakeUnits(unsigned count);
    /** Read kernel source text from (asid-translated) device memory. */
    bool readKernelText(Asid asid, Addr va, std::uint32_t size,
                        std::string &out);
    /** TLB shootdown across units + DRAM-TLB (Table II, privileged). */
    void shootdownTlb(Asid asid, Addr va);

  private:
    /**
     * Timing access into this device's own memory path, logically issued
     * at @p at (>= now; fused upstream stages issue from their completion
     * tick): route @p pkt (addressed with a global PA inside this
     * device's window) over the request crossbar to its L2 slice,
     * re-stamping the address device-local in place. The packet keeps
     * whatever hop frames and completion callback it already carries —
     * an L1 miss rides through here unchanged — and follows the fused
     * delivery convention: it may complete before sim-time reaches its
     * completion tick.
     */
    void localMemPacket(MemPacketPtr pkt, Tick at);

    /**
     * Issue a local access that answers through response-crossbar port
     * @p resp_port with @p xbar_size response bytes (host and peer
     * traffic). The crossbar hop rides as a hop frame on the access
     * packet itself — the carrier packet the old callback-wrap needed is
     * gone; the response path allocates nothing.
     */
    void respondVia(unsigned resp_port, std::uint32_t xbar_size, MemOp op,
                    Addr pa, std::uint32_t size, TickCallback done);

    /** Hop frame for every response: books the response crossbar as a
     *  latency term on the completion tick (a = port | bytes<<32). The
     *  crossbar plane keys on t ^ b: b is the unit index on a unit's
     *  L1 miss, 0 for host and peer responses. */
    static Tick respXbarHop(MemPacket &pkt, Tick t, void *ctx,
                            std::uint64_t a, std::uint64_t b);

    /**
     * One M2func access in flight from the CXL.mem ingress to the
     * controller, and for a read on to its (possibly held-back) reply.
     * Events and the reply carry only the record pointer, which fits
     * the inline capture buffer. A write stages its payload here (see
     * cxlWrite for why staging is required); a read keeps its
     * completion callback.
     */
    struct M2FuncCall
    {
        M2FuncCall *next = nullptr;
        Asid asid = 0;
        std::uint64_t offset = 0;
        Addr hpa = 0;
        M2FuncPayload payload;
        TickCallback done;
    };

    EventQueue &eq_;
    DeviceConfig cfg_;
    SparseMemory &mem_;

    PacketFilter filter_;
    std::unique_ptr<DramDevice> dram_;
    std::vector<std::unique_ptr<Cache>> l2_slices_;
    std::unique_ptr<Crossbar> req_xbar_;
    std::unique_ptr<Crossbar> resp_xbar_;
    std::unique_ptr<NdpController> controller_;
    std::vector<std::unique_ptr<NdpUnit>> units_;
    std::unique_ptr<DramTlb> dram_tlb_;

    /** Per-unit L1D caches (write-through, Section III-F) and the adapters
     *  routing their misses over the request crossbar to the L2 slices. */
    class UnitPort;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<UnitPort>> unit_ports_;

    /**
     * Shared cycle driver (run-until-stall ticking): one Ticker serves
     * every NDP unit. `unit_next_tick_[u]` is the earliest edge unit u
     * wants service (kTickMax when stalled), and bit u of `armed_units_`
     * is set while it is not; the driver runs all due units per edge in
     * unit-index order, then either consumes the next edge in place —
     * when `EventQueue::tryAdvance` proves no other event intervenes
     * (burst: zero scheduled events per edge) — or re-arms the Ticker at
     * the earliest requested edge. Requests arriving while the driver
     * runs are picked up by its own loop instead of re-arming.
     */
    void unitCycleDriver();
    std::vector<Tick> unit_next_tick_;
    std::uint64_t armed_units_ = 0;
    Ticker unit_ticker_;
    bool in_cycle_driver_ = false;
    /** Edge the driver is processing, and whether a request for that very
     *  edge landed on an already-visited unit mid-loop (phase wakes). */
    Tick driver_now_ = 0;
    bool driver_rescan_ = false;

    /** Media-over-CXL link per memory (Section III-J). */
    std::vector<Reservation> media_links_;

    std::unordered_map<Asid, const PageTable *> processes_;
    std::unordered_map<Asid, Addr> m2func_regions_;
    Addr next_m2func_base_;

    Rng bi_rng_;
    PeerAccessFn peer_access_;
    DeviceStats dstats_;

    SlabPool<M2FuncCall> call_pool_;
};

} // namespace m2ndp
