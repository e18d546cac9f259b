#include "ndp/ndp_unit.hh"

#include "common/annotations.hh"

#include <algorithm>
#include <bit>

#include "common/hotpath_timer.hh"
#include "common/log.hh"
#include "device/cxl_memory_expander.hh"
#include "ndp/ndp_controller.hh"

namespace m2ndp {

namespace {
constexpr unsigned
fuIndex(isa::FuType fu)
{
    return static_cast<unsigned>(fu);
}

constexpr std::uint64_t kPageMask = layout::kPageBytes - 1;
constexpr unsigned kPageShift = std::countr_zero(layout::kPageBytes);
static_assert(SparseMemory::kPageBytes == layout::kPageBytes,
              "a cached translation must map onto one SparseMemory page");

// Table IV unit constants (the swept values live in NdpUnitConfig).
constexpr Tick kSpadLatencyCycles = 2;
constexpr unsigned kDtlbEntries = 256; ///< per unit, 8-way
constexpr unsigned kDtlbAssoc = 8;
constexpr Tick kAtsLatency = 2 * kUs; ///< cold DRAM-TLB entry (II-B)
} // namespace

NdpUnit::NdpUnit(EventQueue &eq, CxlMemoryExpander &dev, NdpController &ctl,
                 SparseMemory &mem, NdpUnitConfig cfg)
    : eq_(eq), dev_(dev), ctl_(ctl), mem_(mem), cfg_(cfg),
      subcores_(cfg.subcores), spad_(kSpadBytes, 0),
      dtlb_(kDtlbEntries, kDtlbAssoc, layout::kPageBytes)
{
    for (auto &sc : subcores_) {
        sc.slots.resize(kSlotsPerSubcore);
        sc.reg_bytes_free = cfg_.regfile_bytes / cfg_.subcores;
        sc.idle_mask = kAllIdle;
        sc.sched.reset(kSlotsPerSubcore);
        for (unsigned i = 0; i < sc.slots.size(); ++i) {
            sc.slots[i].owner = &sc;
            sc.slots[i].index = static_cast<std::uint8_t>(i);
        }
    }
    // Parked completions: blocking entries are bounded by the slot count,
    // but posted stores can pile up behind DRAM latency. Reserve well past
    // any observed peak so the steady state never grows the vector.
    pending_.reserve(16 * static_cast<std::size_t>(cfg_.subcores) *
                     kSlotsPerSubcore);

    // Reciprocal for the edge math: ceil(2^64 / period). Exact for
    // t < 2^64 / period because the rounding error e = inv*period - 2^64
    // is < period, so the q-error term t*e / 2^64 stays below 1 there.
    M2_ASSERT(cfg_.period > 1, "cycle period must exceed one tick");
    period_inv_ = ~std::uint64_t(0) / cfg_.period + 1;
    period_div_limit_ = ~std::uint64_t(0) / cfg_.period;
}

M2NDP_HOT_PATH
const NdpUnit::Translation &
NdpUnit::translateCached(Asid asid, Addr va)
{
    const Addr va_page = va & ~kPageMask;
    // Direct-mapped by low page-number bits: streaming kernels touch a
    // handful of distinct buffers whose pages land in distinct slots.
    Translation &e = tcache_[(va >> kPageShift) & (kTcacheEntries - 1)];
    if (e.page != nullptr && e.va_page == va_page && e.asid == asid)
        return e;
    auto pa = dev_.translateFunctional(asid, va);
    if (!pa) [[unlikely]] {
        // Kernel fault: surfaced as a trap at the issue stage, which
        // kills the owning instance with a typed error. (On the timing
        // path this cannot fire: every timing ref's VA was already
        // translated functionally by the same instruction's step.)
        ++stats_.traps_unmapped;
        throw KernelTrap{NdpError::UnmappedAddress, va};
    }
    e.asid = asid;
    e.va_page = va_page;
    e.pa_page = *pa - (va & kPageMask);
    e.page = &mem_.pageFor(e.pa_page);
    return e;
}

// --------------------------------------------------------------------------
// Functional memory path (isa::MemoryIf)
// --------------------------------------------------------------------------

M2NDP_HOT_PATH
std::uint8_t *
NdpUnit::spadPointer(Addr va, unsigned size)
{
    M2_ASSERT(current_slot_ != nullptr, "spad access outside step()");
    KernelInstance *inst = current_slot_->instance;

    if (va >= layout::kKernelArgVa &&
        va + size <= layout::kKernelArgVa + layout::kKernelArgWindow) {
        // Argument window: per-instance buffer (top 256 B of the window).
        return inst->args.data() + (va - layout::kKernelArgVa);
    }

    std::uint64_t off = va - layout::kScratchpadVaBase;
    std::uint64_t limit = inst->kernel->resources.scratchpad_bytes;
    if (off + size > limit || off + size < off) [[unlikely]] {
        // Access past the declared scratchpad allocation: a kernel bug,
        // trapped and surfaced as a typed error instead of aborting.
        ++stats_.traps_spad_oob;
        throw KernelTrap{NdpError::ScratchpadOverflow, va};
    }
    M2_ASSERT(inst->spad_offset + off + size <= spad_.size(),
              "scratchpad overflow");
    return spad_.data() + inst->spad_offset + off;
}

M2NDP_HOT_PATH
void
NdpUnit::read(Addr va, void *out, unsigned size)
{
    if (layout::isScratchpadVa(va)) {
        std::memcpy(out, spadPointer(va, size), size);
        return;
    }
    M2_ASSERT(current_slot_ != nullptr, "memory access outside step()");
    const Asid asid = current_slot_->instance->asid;
    // A page-straddling bulk access (vector fast path) splits per page.
    auto *dst = static_cast<std::uint8_t *>(out);
    while (size > 0) {
        const Addr in_page = va & kPageMask;
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(size, layout::kPageBytes - in_page));
        const Translation &t = translateCached(asid, va);
        SparseMemory::read(*t.page, t.pa_page + in_page, dst, chunk);
        va += chunk;
        dst += chunk;
        size -= chunk;
    }
}

M2NDP_HOT_PATH
void
NdpUnit::write(Addr va, const void *in, unsigned size)
{
    if (layout::isScratchpadVa(va)) {
        std::memcpy(spadPointer(va, size), in, size);
        return;
    }
    M2_ASSERT(current_slot_ != nullptr, "memory access outside step()");
    const Asid asid = current_slot_->instance->asid;
    auto *src = static_cast<const std::uint8_t *>(in);
    while (size > 0) {
        const Addr in_page = va & kPageMask;
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(size, layout::kPageBytes - in_page));
        const Translation &t = translateCached(asid, va);
        mem_.write(*t.page, t.pa_page + in_page, src, chunk);
        va += chunk;
        src += chunk;
        size -= chunk;
    }
}

M2NDP_HOT_PATH
std::uint64_t
NdpUnit::amo(AmoOp op, Addr va, std::uint64_t operand, unsigned width)
{
    if (layout::isScratchpadVa(va)) {
        // Scratchpad LSU atomics (Section III-E): apply the shared AMO
        // semantics in place on the scratchpad bytes.
        return amoApply(spadPointer(va, width), op, operand, width);
    }
    M2_ASSERT(current_slot_ != nullptr, "memory access outside step()");
    const Translation &t = translateCached(current_slot_->instance->asid, va);
    const Addr pa = t.pa_page + (va & kPageMask);
    // The executor rejects misaligned AMOs and PA pages are page-aligned,
    // so a 4- or 8-byte AMO never straddles a frame.
    const std::uint64_t in_frame = pa & SparseMemory::kFrameMask;
    M2_ASSERT(in_frame + width <= SparseMemory::kFrameSize,
              "AMO straddles a frame at pa ", pa);
    return amoApply(mem_.frameFor(*t.page, pa) + in_frame, op, operand, width);
}

// --------------------------------------------------------------------------
// Timing
// --------------------------------------------------------------------------

void
NdpUnit::wake()
{
    work_maybe_available_ = true;
    scheduleTick(edgeAtOrAfter(eq_.now()));
}

M2NDP_HOT_PATH
void
NdpUnit::scheduleTick(Tick at)
{
    // The device's shared cycle driver coalesces requests earliest-wins
    // across all units (one Ticker per device, not one per unit) and may
    // consume consecutive edges in place (run-until-stall).
    dev_.requestUnitTick(cfg_.index, at);
}

M2NDP_HOT_PATH
Tick
NdpUnit::tick(Tick now)
{
    // Same-edge re-ticks (completions queued mid-cycle, phase wakes)
    // re-run the spawn/issue passes but must not re-count the per-cycle
    // scheduler stats for an already-counted edge.
    const bool new_cycle = now != last_tick_;
    last_tick_ = now;

    // Apply parked memory completions first so woken slots issue this
    // cycle (fused delivery: the response event no longer exists).
    if (pending_min_ <= now)
        drainCompletions(now);
    Tick next = kTickMax;
    // OR of every sub-core's idle and live slot masks once its spawn and
    // issue passes are done (no later pass touches an earlier sub-core).
    std::uint64_t idle_any = 0;
    std::uint64_t live_any = 0;

    for (auto &sc : subcores_) {
        if (work_maybe_available_ && sc.idle_mask != 0)
            trySpawn(sc, now);
        if (sc.sched.anyReady() || sc.sched.sleeperCount() != 0) {
            next = std::min(next, issueOne(sc, now, new_cycle));
        } else if (new_cycle && sc.waitmem_count != 0) {
            // Fully parked sub-core (every live uthread waits on memory):
            // the dominant case on memory-bound kernels. Classify the
            // stall inline and skip the issue pass entirely — the ring
            // and wake list are empty, so issueOne could only return
            // kTickMax anyway.
            ++stats_.stall_mem_wait;
        }
        idle_any |= sc.idle_mask;
        live_any |= sc.idle_mask ^ kAllIdle;
    }

    if (live_any != 0)
        ++stats_.active_cycles;

    // Decide when to tick again: the earliest of the next interesting
    // issue tick, a parked completion, or next cycle when spawnable work
    // may exist. A unit whose every slot is provably k cycles away sleeps
    // until that tick (interval ticking); a fully idle unit sleeps until
    // a completion or wake requests a tick. Returned to the cycle driver
    // instead of upcalled through requestUnitTick (one virtual call per
    // tick saved; completions queued mid-tick still upcall).
    if (work_maybe_available_ && idle_any != 0)
        next = std::min(next, now + cfg_.period);
    next = std::min(next, pending_min_);
    return next != kTickMax ? edgeAtOrAfter(next) : kTickMax;
}

M2NDP_HOT_PATH
void
NdpUnit::queueCompletion(Slot *slot, KernelInstance *inst, MemOp op,
                         bool blocking, Tick when)
{
    // Clamp: peer/host chains may deliver exactly at now; fused device
    // stages always stamp the future.
    when = std::max(when, eq_.now());
    // Capacity reserved in the constructor for the all-slots-outstanding
    // worst case; never reallocates. ndp-lint: allow(hotpath-alloc)
    pending_.push_back(PendingCompletion{slot, inst, when, pending_seq_++,
                                         op, blocking});
    std::push_heap(pending_.begin(), pending_.end());
    // Request a tick only when this entry becomes the new earliest: when
    // pending_ is non-empty there is always an outstanding driver request
    // at or before edge(pending_min_) (queued here or re-requested by the
    // draining tick's return value), so later completions ride it. This
    // removes one Ticker cancel + re-schedule per in-order completion —
    // the dominant source of event churn after run-until-stall.
    if (when < pending_min_) {
        pending_min_ = when;
        scheduleTick(edgeAtOrAfter(when));
    }
}

M2NDP_HOT_PATH
void
NdpUnit::drainCompletions(Tick now)
{
    // Pop only the due prefix; entries apply in (when, arrival) order.
    while (!pending_.empty() && pending_.front().when <= now) {
        std::pop_heap(pending_.begin(), pending_.end());
        PendingCompletion e = pending_.back();
        pending_.pop_back();
        if (e.op != MemOp::Read)
            ctl_.storeDrained(e.inst);
        if (e.blocking)
            completeBlockingAccess(e.slot, e.when);
    }
    pending_min_ = pending_.empty() ? kTickMax : pending_.front().when;
}

M2NDP_HOT_PATH
void
NdpUnit::trySpawn(SubCore &sc, Tick now)
{
    // Coarse-grained ablation: behave like threadblock allocation — only
    // refill when the whole sub-core drained (Fig. 12a).
    if (!cfg_.fine_grained_spawn && sc.idle_mask != kAllIdle)
        return;

    while (sc.idle_mask != 0) {
        // Lowest idle slot (same pick order as the old linear walk).
        unsigned idx =
            static_cast<unsigned>(std::countr_zero(sc.idle_mask));
        Slot &slot = sc.slots[idx];
        // The controller commits a uthread only if it fits this
        // sub-core's free registers. A blocked sub-core keeps the unit
        // armed and retries next cycle, when a uthread may have retired.
        SpawnItem item;
        PullStatus got = ctl_.pullWork(cfg_.index, sc.reg_bytes_free, item);
        if (got != PullStatus::Spawn) {
            if (got == PullStatus::Empty)
                work_maybe_available_ = false;
            return;
        }
        const auto &need = item.instance->kernel->resources;
        sc.reg_bytes_free -= need.registerBytes();

        slot.state = SlotState::Ready;
        // Zero only the provisioned registers instead of copying a fresh
        // 1.3 KiB context per spawn (millions of spawns per sweep).
        slot.ctx.resetFor(std::max<std::uint8_t>(need.num_int_regs, 3),
                          need.num_float_regs, need.num_vector_regs);
        slot.ctx.x[1] = item.x1;
        slot.ctx.x[2] = item.x2;
        slot.instance = item.instance;
        slot.section = item.section;
        slot.ready_at = now + cfg_.period; // spawn takes one cycle
        slot.outstanding_loads = 0;
        slot.finish_pending = false;
        sc.idle_mask &= ~(std::uint64_t(1) << idx);
        // Spawn interaction with the ready ring: the slot enters the
        // wake list for the next edge and surfaces in the ring there.
        sc.sched.sleepUntil(idx, slot.ready_at);
        // Fine-grained: at most one spawn per cycle; coarse mode fills
        // the whole sub-core.
        if (cfg_.fine_grained_spawn)
            return;
    }
}

M2NDP_HOT_PATH
Tick
NdpUnit::issueOne(SubCore &sc, Tick now, bool new_cycle)
{
    hotpath::Scope issue_timer(hotpath::g.issue);
    // Surface due sleepers (FU latency, spawn delay) into the ready ring.
    sc.sched.advance(now);
    const std::uint64_t ring = sc.sched.readyMask();
    if (new_cycle) {
        stats_.ready_occupancy_integral +=
            static_cast<unsigned>(std::popcount(ring));
    }
    if (ring == 0) {
        // Nothing issuable: classify the stall for the scheduler stats.
        if (new_cycle) {
            if (sc.sched.sleeperCount() != 0)
                ++stats_.stall_no_ready;
            else if (sc.waitmem_count != 0)
                ++stats_.stall_mem_wait;
        }
        return sc.sched.nextWake();
    }

    const unsigned n = static_cast<unsigned>(sc.slots.size());
    // RR selection over ring bits only: first set bit at/after the
    // cursor, wrapping — the same order the old full slot walk produced.
    // A candidate that loses an FU structural hazard is cleared from the
    // scratch copy (it stays in the ring for next cycle) and selection
    // continues in RR order.
    std::uint64_t cand = ring;
    int idx;
    while ((idx = ReadySched::pickFrom(cand, sc.rr_next)) >= 0) {
        Slot &slot = sc.slots[static_cast<unsigned>(idx)];
        const unsigned uidx = static_cast<unsigned>(idx);
        if (slot.instance->error < 0) [[unlikely]] {
            // Instance killed (trap elsewhere, watchdog, abort): retire
            // the uthread without executing — this is how a runaway
            // (e.g. infinite-loop) uthread is reclaimed. The slot,
            // register-file budget, and ring entry recycle through the
            // normal finishThread path.
            ++stats_.uthreads_killed;
            sc.rr_next = uidx + 1 == n ? 0 : uidx + 1;
            sc.sched.removeReady(uidx);
            finishThread(sc, slot);
            break;
        }
        if (slot.section->code.empty()) {
            // Degenerate empty section: finish immediately.
            sc.rr_next = uidx + 1 == n ? 0 : uidx + 1;
            sc.sched.removeReady(uidx);
            finishThread(sc, slot);
            break;
        }

        // Determine the FU the next instruction needs (an opcode trait).
        const isa::Instruction &next_inst = slot.section->code[slot.ctx.pc];
        isa::FuType fu = next_inst.fu;
        // Ablation: no scalar pipes — scalar work contends for vector FUs
        // like a SIMT-only GPU (redundant per-lane address calculation).
        if (!cfg_.scalar_units) {
            if (fu == isa::FuType::ScalarAlu)
                fu = isa::FuType::VectorAlu;
            else if (fu == isa::FuType::ScalarSfu)
                fu = isa::FuType::VectorSfu;
            else if (fu == isa::FuType::ScalarLsu)
                fu = isa::FuType::VectorLsu;
        }
        if (fu != isa::FuType::None && sc.fu_free[fuIndex(fu)] > now) {
            // FU busy: let another uthread issue (FGMT); retry next cycle.
            cand &= ~(std::uint64_t(1) << uidx);
            continue;
        }

        // Execute functionally. A kernel trap (unmapped VA, scratchpad
        // overflow) aborts the instruction: the trapping uthread retires
        // here and the owning instance is killed by the controller —
        // zero-cost on the non-trapping path (table-driven unwinding).
        current_slot_ = &slot;
        isa::StepResult res;
        std::int64_t trap_code = 0;
        {
            hotpath::Scope func_timer(hotpath::g.functional);
            try {
                res = isa::step(slot.ctx, *slot.section, *this);
            } catch (const KernelTrap &trap) {
                trap_code = static_cast<std::int64_t>(trap.code);
            }
        }
        current_slot_ = nullptr;

        if (trap_code < 0) [[unlikely]] {
            KernelInstance *inst = slot.instance;
            if (inst->error == 0)
                inst->error = trap_code;
            sc.rr_next = uidx + 1 == n ? 0 : uidx + 1;
            sc.sched.removeReady(uidx);
            // Kill first (stops further spawns), then retire: the
            // retirement's uthreadFinished may complete the instance
            // if this was its last running uthread.
            ctl_.killInstance(inst, trap_code);
            finishThread(sc, slot);
            break;
        }

        ++stats_.instructions;
        if (next_inst.is_vector)
            ++stats_.vector_instructions;
        else
            ++stats_.scalar_instructions;

        // FU occupancy: pipelined units take a new op next cycle; SFUs are
        // unpipelined; LSUs are occupied one cycle per sector reference.
        Tick occupancy = cfg_.period;
        if (fu == isa::FuType::ScalarSfu || fu == isa::FuType::VectorSfu)
            occupancy = res.latency * cfg_.period;
        else if (fu == isa::FuType::ScalarLsu ||
                 fu == isa::FuType::VectorLsu) {
            occupancy =
                std::max<Tick>(1, res.mem.size()) * cfg_.period;
        }
        if (fu != isa::FuType::None)
            sc.fu_free[fuIndex(fu)] = now + occupancy;

        // The issued slot leaves the ring; every outcome below re-inserts
        // it where it belongs (wake list, ring next wake, or nowhere for
        // WaitMem — the completion drain re-inserts those directly). It
        // was picked from the ring, so it cannot be on the wake list:
        // mask-only removal, no O(sleepers) purge on the issue path.
        sc.sched.removeReady(uidx);
        // Transition to WaitMem before issuing refs so completion
        // callbacks observe a consistent state.
        if (res.blocking_mem) {
            slot.state = SlotState::WaitMem;
            ++sc.waitmem_count;
        }
        if (res.done)
            slot.finish_pending = true;

        Tick spad_ready = 0;
        // Assemble-time mem-free tag: ALU/branch µops (the majority on
        // compute-heavy kernels) skip the MemRefList inspection outright.
        if (next_inst.touches_mem && !res.mem.empty())
            spad_ready = handleMemRefs(slot, res, now);

        if (slot.outstanding_loads == 0) {
            if (slot.state == SlotState::WaitMem) {
                // Pure-scratchpad wait (fixed latency) or instant return:
                // the slot never actually parks on memory.
                slot.state = SlotState::Ready;
                --sc.waitmem_count;
            }
            if (res.done) {
                finishThread(sc, slot);
            } else {
                slot.ready_at = spad_ready != 0
                                    ? spad_ready
                                    : now + res.latency * cfg_.period;
                if (slot.ready_at > now)
                    sc.sched.sleepUntil(uidx, slot.ready_at);
                else
                    sc.sched.makeReady(uidx);
            }
        }

        sc.rr_next = uidx + 1 == n ? 0 : uidx + 1;
        break;
    }
    if (idx < 0 && new_cycle)
        ++stats_.stall_fu_busy; // every candidate lost its FU this cycle

    // Next interesting tick: next cycle while issuable slots remain,
    // else the earliest wake (memory waiters report through pending_).
    Tick next = sc.sched.anyReady() ? now + 1 : kTickMax;
    return std::min(next, sc.sched.nextWake());
}

M2NDP_HOT_PATH
void
NdpUnit::completeBlockingAccess(Slot *slot, Tick when)
{
    M2_ASSERT(slot->outstanding_loads > 0, "blocking completion underflow");
    if (--slot->outstanding_loads == 0 &&
        slot->state == SlotState::WaitMem) {
        SubCore &sc = *slot->owner;
        --sc.waitmem_count;
        slot->ready_at = when;
        if (slot->finish_pending) {
            // finishThread flags work_maybe_available_; the spawn pass of
            // the enclosing tick() picks the freed slot up immediately.
            finishThread(sc, *slot);
        } else {
            // Drained at an edge >= when, so the slot is issue-eligible
            // this cycle: straight onto the ready ring, no wake list.
            slot->state = SlotState::Ready;
            sc.sched.makeReady(slot->index);
        }
    }
}

M2NDP_HOT_PATH
Tick
NdpUnit::handleMemRefs(Slot &slot, const isa::StepResult &res, Tick now)
{
    // First pass: issue global refs (these need real completion
    // callbacks) and count blocking scratchpad refs.
    unsigned spad_blocking = 0;
    for (const auto &ref : res.mem) {
        if (layout::isScratchpadVa(ref.va)) {
            ++stats_.spad_accesses;
            stats_.spad_bytes += ref.size;
            if (res.blocking_mem)
                ++spad_blocking;
            continue;
        }
        issueGlobalAccess(slot, ref, now, res.blocking_mem);
    }
    if (spad_blocking == 0)
        return 0;

    const Tick spad_done = now + kSpadLatencyCycles * cfg_.period;
    if (slot.outstanding_loads == 0 && !slot.finish_pending) {
        // Pure scratchpad wait: the latency is fixed and known now, so
        // the slot can simply become ready at the completion tick — no
        // completion event, no wake. The caller (issueOne) applies the
        // returned tick as the slot's ready_at.
        return spad_done;
    }
    // Mixed with global refs (or a finishing uthread): park real
    // completions so the slot wakes only when everything returned. No
    // event — the parked entries ride the unit's tick ticker.
    Slot *s = &slot;
    for (unsigned i = 0; i < spad_blocking; ++i) {
        ++slot.outstanding_loads;
        queueCompletion(s, slot.instance, MemOp::Read, true, spad_done);
    }
    return 0;
}

M2NDP_HOT_PATH
void
NdpUnit::issueGlobalAccess(Slot &slot, const isa::MemRef &ref, Tick now,
                           bool blocking)
{
    KernelInstance *inst = slot.instance;
    const Asid asid = inst->asid;

    // Translation timing: D-TLB hit is free; miss costs one DRAM-TLB read
    // (a 16 B DRAM access); a cold DRAM-TLB entry costs an ATS round trip.
    Tick ats_delay = 0;
    bool need_dram_tlb = false;
    if (!dtlb_.lookup(asid, ref.va)) {
        need_dram_tlb = true;
        if (!dev_.dramTlbWarm(asid, ref.va)) {
            ats_delay = kAtsLatency;
            dev_.dramTlbRefill(asid, ref.va);
        }
    }

    const Addr pa_page = translateCached(asid, ref.va).pa_page;
    const Addr pa = pa_page + (ref.va & kPageMask);
    if (need_dram_tlb) {
        // Fixed-geometry TLB fill, no allocation.
        // ndp-lint: allow(hotpath-alloc)
        dtlb_.insert(asid, ref.va, pa_page);
    }

    // Classify: within a blocking instruction, a store ref is an atomic
    // (AMO); standalone stores are posted.
    MemOp op;
    if (ref.is_store && blocking) {
        op = MemOp::Atomic;
        ++stats_.global_atomics;
    } else {
        op = ref.is_store ? MemOp::Write : MemOp::Read;
    }
    stats_.global_bytes += ref.size;

    Slot *s = &slot;
    // Count blocking refs *now* so the issue path sees the thread as
    // waiting even while the DRAM-TLB read is still in flight.
    if (blocking)
        ++s->outstanding_loads;
    // Posted stores and atomics register with the drain accounting at
    // issue time (not after the TLB fill): the instance must not be able
    // to complete while a store is still waiting on translation.
    if (op != MemOp::Read)
        ctl_.storeIssued(inst);

    std::uint32_t size = ref.size;
    if (!need_dram_tlb) {
        launchGlobalAccess(s, inst, op, blocking, pa, size, now);
        return;
    }

    // One 16 B DRAM read to the hashed DRAM-TLB entry location, then
    // (plus any ATS delay for cold entries) the actual access. The fill
    // completion may be delivered early with a future tick (fused memory
    // stages), so the launch is deferred to that tick — the access itself
    // must enter the L1 at its real issue time. Captures carry scalars
    // only (<= 48 B inline, see launchGlobalAccess).
    const bool cold = ats_delay != 0;
    KernelInstance *inst_p = inst;
    Addr entry_pa = dev_.dramTlbEntryPa(asid, ref.va);
    dev_.unitMemAccess(
        cfg_.index, MemOp::Read, entry_pa, DramTlb::kEntryBytes,
        [this, s, inst_p, pa, now, size, op, blocking, cold](Tick t) {
            Tick fire = cold ? t + kAtsLatency : t;
            if (fire <= eq_.now()) {
                launchGlobalAccess(s, inst_p, op, blocking, pa, size, now);
                return;
            }
            eq_.schedule(
                fire, [this, s, inst_p, pa, now, size, op, blocking] {
                    launchGlobalAccess(s, inst_p, op, blocking, pa, size,
                                       now);
                });
        });
}

M2NDP_HOT_PATH
void
NdpUnit::launchGlobalAccess(Slot *s, KernelInstance *inst, MemOp op,
                            bool blocking, Addr pa, std::uint32_t size,
                            Tick issued_at)
{
    // Completions arrive through the fused delivery convention: the
    // callback runs as soon as the completing stage knows the completion
    // tick t (possibly before sim-time reaches it), so everything with a
    // timing effect is parked on the unit and applied by the tick at the
    // cycle edge >= t.
    if (op == MemOp::Write) {
        dev_.unitMemAccess(cfg_.index, op, pa, size, [this, inst](Tick t) {
            queueCompletion(nullptr, inst, MemOp::Write, false, t);
        });
        return;
    }
    dev_.unitMemAccess(cfg_.index, op, pa, size,
                       [this, s, blocking, op, inst, issued_at](Tick t) {
        stats_.load_latency_ticks += t - issued_at;
        ++stats_.load_samples;
        if (op == MemOp::Atomic || blocking)
            queueCompletion(blocking ? s : nullptr, inst, op, blocking, t);
    });
}

M2NDP_HOT_PATH
void
NdpUnit::finishThread(SubCore &sc, Slot &slot)
{
    sc.reg_bytes_free += slot.instance->kernel->resources.registerBytes();
    KernelInstance *inst = slot.instance;
    sc.sched.remove(slot.index); // idempotent; no-op for WaitMem finishes
    slot.state = SlotState::Idle;
    slot.instance = nullptr;
    slot.section = nullptr;
    sc.idle_mask |= std::uint64_t(1) << slot.index;
    ++stats_.uthreads_completed;
    work_maybe_available_ = true; // a slot freed: maybe new spawn possible
    ctl_.uthreadFinished(inst);
}

unsigned
NdpUnit::activeSlots() const
{
    unsigned idle = 0;
    for (const auto &sc : subcores_)
        idle += static_cast<unsigned>(std::popcount(sc.idle_mask));
    return cfg_.subcores * kSlotsPerSubcore - idle;
}

} // namespace m2ndp
