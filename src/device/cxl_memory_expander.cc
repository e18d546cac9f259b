#include "device/cxl_memory_expander.hh"

#include "common/annotations.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace m2ndp {

/** Routes L1D misses from unit @p unit over the NoC to the L2 slices and
 *  books the response crossbar on the way back. */
class CxlMemoryExpander::UnitPort : public MemPort
{
  public:
    UnitPort(CxlMemoryExpander &dev, unsigned unit) : dev_(dev), unit_(unit) {}

    void
    receive(MemPacketPtr pkt, Tick at) override
    {
        // Fused response delivery: the return crossbar hop rides as a
        // hop frame on the packet itself and is booked as a latency term
        // (per-port next-free bookkeeping models arbitration) when the
        // frame pops — the waiting NDP unit parks the early completion
        // on its cycle ticker. No response event, no unit-wake event,
        // and no carrier packet: the L1 miss continues downstream on
        // the same pooled node.
        pkt->pushHop(&CxlMemoryExpander::respXbarHop, &dev_,
                     std::uint64_t(unit_) |
                         (std::uint64_t(pkt->size) << 32),
                     unit_);
        dev_.localMemPacket(std::move(pkt), at);
    }

  private:
    CxlMemoryExpander &dev_;
    unsigned unit_;
};

namespace {

// Table IV device constants (the swept values live in DeviceConfig).
constexpr unsigned kDramChannels = 32;          ///< LPDDR5, one L2 slice each
constexpr std::uint64_t kInterleaveBytes = 256; ///< hashed channel interleave
constexpr std::uint64_t kL2SliceBytes = 128 * kKiB; ///< 16-way, 7-cycle
constexpr unsigned kL2Assoc = 16;
constexpr Tick kL2LatencyCycles = 7;
/** L1D: half of the unit's 128 KiB, the rest is scratchpad (III-F). */
constexpr std::uint64_t kL1dBytes = 64 * kKiB;
constexpr Tick kL1dLatencyCycles = 4;
constexpr Tick kM2FuncLatency = 30 * kNs; ///< controller handling
constexpr Tick kBackInvalidationLatency = 150 * kNs; ///< Fig. 13b
/** Media-over-CXL link (III-J): the host link's rate, 35 ns each way. */
constexpr Tick kMediaLinkLatency = 35 * kNs;

/** Response-crossbar port used by CXL (host) responses. */
constexpr unsigned
hostRespPort(const DeviceConfig &cfg)
{
    return cfg.num_units;
}

constexpr unsigned
peerRespPort(const DeviceConfig &cfg)
{
    return cfg.num_units + 1;
}

} // namespace

CxlMemoryExpander::CxlMemoryExpander(EventQueue &eq, SparseMemory &global_mem,
                                     DeviceConfig cfg)
    : eq_(eq), cfg_(cfg), mem_(global_mem),
      unit_next_tick_(cfg.num_units, kTickMax),
      unit_ticker_(eq, [this] { unitCycleDriver(); }),
      next_m2func_base_(layout::deviceBase(cfg.index) +
                        layout::kDeviceWindow - layout::kM2FuncReserve),
      bi_rng_(0xB1B1 + cfg.index)
{
    if (cfg_.num_units > 64)
        M2_FATAL("a device supports at most 64 NDP units, got ",
                 cfg_.num_units);
    // Drain delivery aligned to unit cycle edges: units park completions
    // until their next edge anyway, so the quantized drain coalesces
    // completer events with unit ticks at no unit-visible timing cost
    // (host-path completions through the L2 slices can deliver up to one
    // unit cycle later in *sim* time; their completion ticks stay exact).
    dram_ = std::make_unique<DramDevice>(eq_, DramTiming::lpddr5(),
                                         kDramChannels, kInterleaveBytes,
                                         cfg_.unit.period);

    for (unsigned c = 0; c < kDramChannels; ++c) {
        CacheConfig l2;
        l2.size = kL2SliceBytes;
        l2.assoc = kL2Assoc;
        l2.line_bytes = 128;
        l2.sector_bytes = 32;
        l2.latency = kL2LatencyCycles * cfg_.unit.period;
        l2.port_cycle = cfg_.unit.period;
        l2.write_through = false;
        l2.write_allocate = true;
        l2.atomics_local = true; // global atomics execute here (III-F)
        l2.mshrs = 160;
        l2_slices_.push_back(std::make_unique<Cache>(eq_, l2, *dram_));
    }

    // On-chip NoC: Table IV's four 32x32 crossbars of 32 B flits.
    CrossbarConfig req;
    req.ports = kDramChannels;
    req_xbar_ = std::make_unique<Crossbar>(eq_, req);
    CrossbarConfig resp;
    resp.ports = cfg_.num_units + 2; // units + host + peer
    resp_xbar_ = std::make_unique<Crossbar>(eq_, resp);

    controller_ = std::make_unique<NdpController>(*this, cfg_.controller);

    for (unsigned u = 0; u < cfg_.num_units; ++u) {
        NdpUnitConfig uc = cfg_.unit;
        uc.index = u;
        units_.push_back(std::make_unique<NdpUnit>(eq_, *this, *controller_,
                                                   mem_, uc));
        unit_ports_.push_back(std::make_unique<UnitPort>(*this, u));
        CacheConfig l1;
        l1.size = kL1dBytes;
        l1.assoc = 16;
        l1.line_bytes = 128;
        l1.sector_bytes = 32;
        l1.latency = kL1dLatencyCycles * cfg_.unit.period;
        l1.port_cycle = cfg_.unit.period;
        l1.write_through = true;   // GPU-style, Section III-F
        l1.write_allocate = false;
        l1.atomics_local = false;  // global atomics go to the L2 slices
        l1.mshrs = 64;
        l1d_.push_back(std::make_unique<Cache>(eq_, l1, *unit_ports_[u]));
    }

    dram_tlb_ = std::make_unique<DramTlb>(paBase() + layout::kDramTlbOffset,
                                          layout::kDramTlbBytes,
                                          layout::kPageBytes);

    media_links_.resize(std::max(1u, cfg_.media_links));
}

CxlMemoryExpander::~CxlMemoryExpander() = default;

// --------------------------------------------------------------------------
// Memory path
// --------------------------------------------------------------------------

M2NDP_HOT_PATH
void
CxlMemoryExpander::localMemPacket(MemPacketPtr pkt, Tick at)
{
    const Addr pa = pkt->addr;
    const std::uint32_t size = pkt->size;
    M2_ASSERT(ownsPa(pa), "local access outside device window");
    M2_ASSERT(at + eq_.deliverySlack() >= eq_.now(),
              "local access issued in the past");
    Addr local = pa - paBase();
    unsigned channel = dram_->channelOf(local);

    // Optional CXL hop to passive media (NDP-in-switch, Section III-J):
    // serialize request+response on the per-memory link.
    Tick media_delay = 0;
    if (cfg_.media_over_cxl) {
        unsigned link = channel % cfg_.media_links;
        Tick ser =
            serializationTicks(size + kCxlHeaderBytes, kCxlLinkGbps) * 2;
        Tick start = media_links_[link].book(eq_, at, ser);
        media_delay = (start - at) + ser + 2 * kMediaLinkLatency;
    }

    // The crossbar plane hash keys on the *global* PA (stable across the
    // re-stamp below).
    Tick arrival = req_xbar_->send(channel, size, at, pa) + media_delay;

    // Fused delivery end to end: the slice's lookup, the DRAM booking and
    // the response hop all run synchronously with the arrival tick
    // threaded through as the timing floor — the request path schedules
    // no event at all. The slice books its lookup port in *issue* order
    // rather than strict arrival order (hash-selected crossbar planes can
    // reorder in flight), so a request booked at a far-future arrival
    // tick holds up every later-issued request behind it. How far ahead
    // of now() any port was booked is System::maxBookingLookahead()
    // (docs/performance.md, "One booking primitive").
    pkt->addr = local;
    l2_slices_[channel]->receive(std::move(pkt), arrival);
}

void
CxlMemoryExpander::requestUnitTick(unsigned unit, Tick at)
{
    if (at < unit_next_tick_[unit])
        unit_next_tick_[unit] = at;
    armed_units_ |= std::uint64_t{1} << unit;
    // Inside the driver the request is observed by its own loop; arming
    // here would plant a queue event that blocks run-until-stall bursts.
    // A request for the edge being processed can land on a unit the loop
    // already passed (a phase wake out of a later unit's uthread finish):
    // flag it so the driver revisits the edge.
    if (!in_cycle_driver_)
        unit_ticker_.armAt(at);
    else if (at <= driver_now_)
        driver_rescan_ = true;
}

void
CxlMemoryExpander::unitCycleDriver()
{
    in_cycle_driver_ = true;
    Tick now = eq_.now();
    for (;;) {
        // Run every armed unit due at this edge, in unit-index order
        // (the deterministic replacement for per-unit Ticker FIFO order),
        // folding the next-edge minimum into the same pass. The live mask
        // is re-read after each unit, so one armed mid-pass above it
        // still runs; requests landing mid-loop on already-visited units
        // raise driver_rescan_.
        driver_now_ = now;
        driver_rescan_ = false;
        Tick next = kTickMax;
        for (std::uint64_t pending = armed_units_; pending != 0;) {
            const auto u = static_cast<unsigned>(std::countr_zero(pending));
            Tick t = unit_next_tick_[u];
            if (t <= now) {
                unit_next_tick_[u] = kTickMax;
                t = units_[u]->tick(now);
                if (unit_next_tick_[u] < t)
                    t = unit_next_tick_[u];
                unit_next_tick_[u] = t;
            }
            if (t == kTickMax)
                armed_units_ &= ~(std::uint64_t{1} << u);
            next = std::min(next, t);
            pending = armed_units_ & (~std::uint64_t{0} << u << 1);
        }
        if (driver_rescan_ || next <= now)
            continue; // same-edge re-tick (phase wake, queued completion)
        if (next == kTickMax)
            break; // all units stalled; a completion or wake re-arms
        // Run-until-stall: consume the next edge in place while nothing
        // else is scheduled before it — the common case during issue
        // bursts, where the old design paid one event per unit per cycle.
        if (!eq_.tryAdvance(next)) {
            unit_ticker_.armAt(next);
            break;
        }
        now = next;
    }
    in_cycle_driver_ = false;
}

M2NDP_HOT_PATH
void
CxlMemoryExpander::unitMemAccess(unsigned unit, MemOp op, Addr pa,
                                 std::uint32_t size, TickCallback done)
{
    // Cross-device P2P access (Section III-I).
    if (!ownsPa(pa)) {
        M2_ASSERT(peer_access_, "P2P access with no peer route installed");
        peer_access_(cfg_.index, op, pa, size, std::move(done));
        return;
    }

    // Dirty-host-cache limit study (Fig. 13b): a fraction of NDP reads
    // require back-invalidating the host's cache over CXL first.
    Tick bi_delay = 0;
    if (op == MemOp::Read && cfg_.dirty_cache_ratio > 0.0 &&
        bi_rng_.nextDouble() < cfg_.dirty_cache_ratio)
        bi_delay = kBackInvalidationLatency;

    // Through the unit's L1D; misses route over the NoC to the L2 slices
    // (the UnitPort adapter books the response crossbar). A delayed
    // access parks in its pooled packet, so the event only captures the
    // packet.
    MemPacketPtr pkt = makePacket(op, pa, size, std::move(done));
    if (bi_delay > 0) {
        eq_.scheduleAfter(bi_delay,
                          [this, unit, pkt = std::move(pkt)]() mutable {
                              l1d_[unit]->receive(std::move(pkt), eq_.now());
                          });
    } else {
        l1d_[unit]->receive(std::move(pkt), eq_.now());
    }
}

Tick
CxlMemoryExpander::respXbarHop(MemPacket &, Tick t, void *ctx,
                               std::uint64_t a, std::uint64_t b)
{
    // Fused: the crossbar hop is a latency term on the completion tick.
    // The waiting unit parks the early completion on its cycle ticker;
    // the host port and peer route re-schedule at max(now, t). Either
    // way, early delivery with a future stamp is safe.
    auto *dev = static_cast<CxlMemoryExpander *>(ctx);
    const unsigned port = static_cast<unsigned>(a & 0xffffffffu);
    const std::uint32_t bytes = static_cast<std::uint32_t>(a >> 32);
    return dev->resp_xbar_->send(port, bytes, t, t ^ b);
}

void
CxlMemoryExpander::respondVia(unsigned resp_port, std::uint32_t xbar_size,
                              MemOp op, Addr pa, std::uint32_t size,
                              TickCallback done)
{
    MemPacketPtr pkt = makePacket(op, pa, size, std::move(done));
    pkt->pushHop(&CxlMemoryExpander::respXbarHop, this,
                 std::uint64_t(resp_port) | (std::uint64_t(xbar_size) << 32),
                 0);
    localMemPacket(std::move(pkt), eq_.now());
}

void
CxlMemoryExpander::peerMemAccess(MemOp op, Addr pa, std::uint32_t size,
                                 TickCallback done)
{
    respondVia(peerRespPort(cfg_), size, op, pa, size, std::move(done));
}

// --------------------------------------------------------------------------
// CXL.mem ingress (post-link)
// --------------------------------------------------------------------------

void
CxlMemoryExpander::cxlWrite(Addr hpa, const void *data, std::uint32_t size,
                            TickCallback done)
{
    auto match = filter_.match(hpa);
    if (match) {
        ++dstats_.m2func_calls;
        // Store the payload functionally in the M2func region and stage a
        // copy in the call record for the controller. The staging copy is
        // required for correctness, not just allocation-freedom: entry
        // points are 32 B apart (Section III-B), so a full 64 B payload
        // at the base LaunchKernel offset (64) spans PollKernelStatus at
        // offset 96, and a poll written there would clobber this launch's
        // argument bytes before the controller handles them. (The extra
        // launch slots are 64 B apart, kM2FuncLaunchSlotStride, and do not
        // overlap one another.)
        mem_.write(hpa, data, size);
        if (size > M2FuncPayload::kMaxBytes) {
            // The controller only ever sees the staged (clamped) copy, so
            // the oversize diagnostic must fire here.
            M2_WARN("M2func payload exceeds 64 B; truncating semantics");
        }
        M2FuncCall *call = call_pool_.acquire();
        call->asid = match->asid;
        call->offset = match->offset;
        call->payload.size = static_cast<std::uint8_t>(
            std::min<std::uint32_t>(size, M2FuncPayload::kMaxBytes));
        std::memcpy(call->payload.bytes.data(), data, call->payload.size);
        eq_.scheduleAfter(kM2FuncLatency, [this, call] {
            controller_->handleWrite(call->asid, call->offset,
                                     call->payload);
            call_pool_.release(call);
        });
        // The write itself is acked immediately (Fig. 5a).
        done(eq_.now() + kM2FuncLatency);
        return;
    }
    ++dstats_.host_writes;
    mem_.write(hpa, data, size);
    respondVia(hostRespPort(cfg_), 16, MemOp::Write, hpa, size,
               std::move(done));
}

void
CxlMemoryExpander::cxlRead(Addr hpa, std::uint32_t size,
                           TickCallback done)
{
    auto match = filter_.match(hpa);
    if (match) {
        ++dstats_.m2func_calls;
        // The controller answers at once or holds the reply back until
        // a synchronous launch ends; the record keeps `done` till then.
        M2FuncCall *call = call_pool_.acquire();
        call->asid = match->asid;
        call->offset = match->offset;
        call->hpa = hpa;
        call->done = std::move(done);
        eq_.scheduleAfter(kM2FuncLatency, [this, call] {
            controller_->handleRead(
                call->asid, call->offset, [this, call](std::int64_t value) {
                    mem_.write<std::int64_t>(call->hpa, value);
                    TickCallback reply = std::move(call->done);
                    call_pool_.release(call);
                    reply(eq_.now());
                });
        });
        return;
    }
    ++dstats_.host_reads;
    respondVia(hostRespPort(cfg_), size, MemOp::Read, hpa, size,
               std::move(done));
}

// --------------------------------------------------------------------------
// Driver-level management (CXL.io path)
// --------------------------------------------------------------------------

Addr
CxlMemoryExpander::allocateM2FuncRegion(Asid asid)
{
    // Idempotent per process: a second runtime for the same ASID shares
    // the region (the driver hands out one region per process).
    auto existing = m2func_regions_.find(asid);
    if (existing != m2func_regions_.end())
        return existing->second;
    Addr base = next_m2func_base_;
    M2_ASSERT(base + layout::kM2FuncRegionSize <=
                  paBase() + layout::kDeviceWindow,
              "M2func reserve exhausted");
    if (!filter_.insert(base, base + layout::kM2FuncRegionSize, asid))
        M2_FATAL("packet filter rejected M2func region for asid ", asid);
    next_m2func_base_ += layout::kM2FuncRegionSize;
    m2func_regions_[asid] = base;
    return base;
}

void
CxlMemoryExpander::attachProcess(const PageTable *table)
{
    processes_[table->asid()] = table;
}

// --------------------------------------------------------------------------
// NDP-unit and controller services
// --------------------------------------------------------------------------

std::optional<Addr>
CxlMemoryExpander::translateFunctional(Asid asid, Addr va)
{
    auto it = processes_.find(asid);
    if (it == processes_.end())
        return std::nullopt;
    return it->second->translate(va);
}

M2NDP_HOT_PATH
Addr
CxlMemoryExpander::dramTlbEntryPa(Asid asid, Addr va)
{
    return dram_tlb_->entryAddress(asid, va);
}

M2NDP_HOT_PATH
bool
CxlMemoryExpander::dramTlbWarm(Asid asid, Addr va)
{
    return dram_tlb_->contains(asid, va);
}

void
CxlMemoryExpander::dramTlbRefill(Asid asid, Addr va)
{
    dram_tlb_->refill(asid, va);
}

void
CxlMemoryExpander::wakeUnits(unsigned count)
{
    for (unsigned i = 0; i < count; ++i)
        units_[i]->wake();
}

bool
CxlMemoryExpander::readKernelText(Asid asid, Addr va, std::uint32_t size,
                                  std::string &out)
{
    out.clear();
    out.reserve(size);
    // Translate page-by-page; kernel text may span mappings.
    std::uint32_t remaining = size;
    Addr cursor = va;
    while (remaining > 0) {
        auto pa = translateFunctional(asid, cursor);
        if (!pa)
            return false;
        const std::uint64_t page = layout::kPageBytes;
        std::uint64_t chunk =
            std::min<std::uint64_t>(remaining, page - (cursor % page));
        std::string buf(chunk, '\0');
        mem_.read(*pa, buf.data(), chunk);
        out += buf;
        cursor += chunk;
        remaining -= static_cast<std::uint32_t>(chunk);
    }
    return true;
}

void
CxlMemoryExpander::shootdownTlb(Asid asid, Addr va)
{
    for (auto &u : units_)
        u->shootdownTlb(asid, va);
    dram_tlb_->shootdown(asid, va);
}

NdpUnitStats
CxlMemoryExpander::aggregateUnitStats() const
{
    NdpUnitStats total;
    for (const auto &u : units_) {
        const NdpUnitStats &s = u->stats();
        total.instructions += s.instructions;
        total.scalar_instructions += s.scalar_instructions;
        total.vector_instructions += s.vector_instructions;
        total.uthreads_completed += s.uthreads_completed;
        total.global_atomics += s.global_atomics;
        total.spad_accesses += s.spad_accesses;
        total.spad_bytes += s.spad_bytes;
        total.global_bytes += s.global_bytes;
        total.active_cycles += s.active_cycles;
        total.load_latency_ticks += s.load_latency_ticks;
        total.load_samples += s.load_samples;
        total.ready_occupancy_integral += s.ready_occupancy_integral;
        total.stall_mem_wait += s.stall_mem_wait;
        total.stall_no_ready += s.stall_no_ready;
        total.stall_fu_busy += s.stall_fu_busy;
        total.traps_unmapped += s.traps_unmapped;
        total.traps_spad_oob += s.traps_spad_oob;
        total.uthreads_killed += s.uthreads_killed;
    }
    return total;
}

unsigned
CxlMemoryExpander::activeContexts() const
{
    unsigned total = 0;
    for (const auto &u : units_)
        total += u->activeSlots();
    return total;
}

} // namespace m2ndp
