#include "ndp/ndp_controller.hh"

#include <algorithm>

#include "common/log.hh"
#include "device/cxl_memory_expander.hh"
#include "ndp/ndp_unit.hh"

namespace m2ndp {

NdpController::NdpController(CxlMemoryExpander &dev, Config cfg)
    : dev_(dev), eq_(dev.eventQueue()), cfg_(cfg),
      num_units_(dev.config().num_units),
      slots_per_unit_(dev.config().unit.subcores * kSlotsPerSubcore),
      subcore_reg_bytes_(dev.config().unit.regfile_bytes /
                         dev.config().unit.subcores)
{
    // Whole per-unit scratchpad data space starts free.
    spad_free_[0] = kSpadBytes;
}

// --------------------------------------------------------------------------
// Launch wire format (the one codec; see LaunchWire)
// --------------------------------------------------------------------------

namespace {

/** Where a layout puts the fields that move: kernel id, pool base and
 *  bound, arguments, and its inline-argument capacity. */
struct LaunchOffsets
{
    unsigned kernel, base, bound, args, max_args;
};

constexpr LaunchOffsets kLaunchOffsets[] = {
    {8, 16, 24, 32, LaunchWire::kMaxArgBytes}, // Layout::Full
    {4, 8, 16, 24, kCompactMaxArgBytes},       // Layout::Compact
};

} // namespace

void
LaunchWire::encode(M2FuncPayload &p, unsigned at, Layout layout) const
{
    const LaunchOffsets &o = kLaunchOffsets[static_cast<unsigned>(layout)];
    const bool compact = layout == Layout::Compact;
    M2_ASSERT(args_size <= o.max_args, "kernel args exceed the layout");
    std::uint8_t *out = p.bytes.data() + at;
    out[0] = static_cast<std::uint8_t>((sync ? kLaunchFlagSync : 0) |
                                       (compact ? kLaunchFlagCompact : 0));
    out[1] = static_cast<std::uint8_t>(args_size);
    out[2] = weight;
    // Little-endian like every payload field: a compact launch keeps the
    // low 32 bits of the kernel id.
    std::memcpy(out + o.kernel, &kernel, compact ? 4 : 8);
    std::memcpy(out + o.base, &base, 8);
    std::memcpy(out + o.bound, &bound, 8);
    if (args_size > 0)
        std::memcpy(out + o.args, args, args_size);
    p.size = static_cast<std::uint8_t>(
        at + (compact ? kCompactLaunchBytes : o.args + args_size));
}

LaunchWire
LaunchWire::decode(const M2FuncPayload &p, unsigned at, Layout layout)
{
    const LaunchOffsets &o = kLaunchOffsets[static_cast<unsigned>(layout)];
    LaunchWire w;
    w.sync = (p.get<std::uint8_t>(at) & kLaunchFlagSync) != 0;
    w.weight = std::max<std::uint8_t>(p.get<std::uint8_t>(at + 2), 1);
    w.kernel = layout == Layout::Compact ? p.get<std::uint32_t>(at + o.kernel)
                                         : p.get<std::int64_t>(at + o.kernel);
    w.base = p.get<std::uint64_t>(at + o.base);
    w.bound = p.get<std::uint64_t>(at + o.bound);
    const unsigned args_at = at + o.args;
    w.args = p.bytes.data() + args_at;
    w.args_size = std::min({unsigned{p.get<std::uint8_t>(at + 1)}, o.max_args,
                            p.size > args_at ? p.size - args_at : 0u});
    return w;
}

// --------------------------------------------------------------------------
// M2func entry points
// --------------------------------------------------------------------------

M2NDP_HOT_PATH
void
NdpController::setReturn(Asid asid, std::uint64_t fn_index,
                         std::int64_t value, bool ready)
{
    ReturnSlot &slot = returns_[slotKey(asid, fn_index)];
    slot.value = value;
    slot.ready = ready;
    if (ready && slot.waiter) {
        auto waiter = std::move(slot.waiter);
        waiter(value);
    }
}

void
NdpController::launchStore(Asid asid, std::uint64_t fn_index,
                           const M2FuncPayload &payload)
{
    if ((payload.get<std::uint8_t>(0) & kLaunchFlagCompact) == 0) {
        launchFromWire(asid, fn_index,
                       LaunchWire::decode(payload, 0,
                                          LaunchWire::Layout::Full));
        return;
    }
    // The base offset owns one return offset: the next one (96) is
    // PollKernelStatus, where a second launch would overwrite the poll
    // target. Only the extra slots own the pair a batched store needs.
    if (fn_index < kM2FuncLaunchSlotBase) {
        ++stats_.launches_rejected;
        setReturn(asid, fn_index,
                  static_cast<std::int64_t>(NdpError::BadLaunchLayout), true);
        return;
    }
    // Batched store: each compact half resolves through its own return
    // offset; a store of 32 B or less carries just one.
    for (unsigned at = 0; at < payload.size; at += kCompactLaunchBytes) {
        ++stats_.launches_batched;
        launchFromWire(asid, fn_index++,
                       LaunchWire::decode(payload, at,
                                          LaunchWire::Layout::Compact));
    }
}

void
NdpController::launchFromWire(Asid asid, std::uint64_t fn_index,
                              const LaunchWire &w)
{
    // The *write* returns promptly; the launch return value is fetched by
    // the subsequent read to the same offset (deferred if synchronous).
    // A synchronous launch resolves it when the instance completes, which
    // can already happen inside launch() (an empty pool region).
    InstanceCompleteFn resolve;
    if (w.sync) {
        setReturn(asid, fn_index, kNdpErr, false);
        resolve = [this, asid, fn_index](const KernelInstance &inst) {
            setReturn(asid, fn_index, inst.returnValue(), true);
        };
    }
    std::int64_t iid = launch(asid, w.kernel, w.base, w.bound, w.args,
                              w.args_size, std::move(resolve), w.weight);
    // Typed rejection codes travel back through the return slot too.
    if (iid < 0 || !w.sync)
        setReturn(asid, fn_index, iid, true);
}

void
NdpController::handleWrite(Asid asid, std::uint64_t offset,
                           const M2FuncPayload &payload)
{
    // Oversize payloads are diagnosed at the CXL.mem ingress (cxlWrite),
    // where the unclamped size is still known; here payload.size is
    // already <= the 64 B wire maximum.
    std::uint64_t fn_index = offset / kM2FuncStride;
    if (fn_index >= kM2FuncLaunchSlotBase) {
        launchStore(asid, fn_index, payload);
        return;
    }
    auto fn = static_cast<M2Func>(fn_index);
    switch (fn) {
      case M2Func::RegisterKernel: {
        Addr code_loc = payload.get<std::uint64_t>(0);
        std::uint32_t code_size = payload.get<std::uint32_t>(8);
        KernelResources res;
        res.scratchpad_bytes = payload.get<std::uint32_t>(12);
        res.num_int_regs = payload.get<std::uint8_t>(16);
        res.num_float_regs = payload.get<std::uint8_t>(17);
        res.num_vector_regs = payload.get<std::uint8_t>(18);
        std::string text;
        if (!dev_.readKernelText(asid, code_loc, code_size, text)) {
            ++stats_.registrations_rejected;
            setReturn(asid, static_cast<std::uint64_t>(fn),
                      static_cast<std::int64_t>(NdpError::RegistrationFailed),
                      true);
            return;
        }
        setReturn(asid, static_cast<std::uint64_t>(fn), registerKernel(asid, text, res), true);
        return;
      }
      case M2Func::UnregisterKernel: {
        auto id = payload.get<std::int64_t>(0);
        auto it = kernels_.find(id);
        if (it == kernels_.end() || it->second->asid != asid) {
            setReturn(asid, static_cast<std::uint64_t>(fn), kNdpErr, true);
            return;
        }
        kernels_.erase(it);
        // Stale code must not be executed later (Section III-F). Kernel
        // code is tiny and I-cache timing is not modeled (the paper notes
        // the impact is negligible), so the flush is a functional no-op.
        setReturn(asid, static_cast<std::uint64_t>(fn), 0, true);
        return;
      }
      case M2Func::LaunchKernel:
        launchStore(asid, fn_index, payload);
        return;
      case M2Func::PollKernelStatus:
        // The slot keeps the target; handleRead reports its status.
        setReturn(asid, static_cast<std::uint64_t>(fn),
                  payload.get<std::int64_t>(0), true);
        return;
      case M2Func::ShootdownTlbEntry: {
        Addr va = payload.get<std::uint64_t>(0);
        Asid target = payload.get<std::uint16_t>(8);
        dev_.shootdownTlb(target, va);
        setReturn(asid, static_cast<std::uint64_t>(fn), 0, true);
        return;
      }
    }
    M2_WARN("M2func write to unknown offset ", offset);
}

M2NDP_HOT_PATH
void
NdpController::handleRead(Asid asid, std::uint64_t offset,
                          InlineCallback<void(std::int64_t)> respond)
{
    std::uint64_t fn_index = offset / kM2FuncStride;
    ReturnSlot &slot = returns_[slotKey(asid, fn_index)];
    if (!slot.ready) {
        // The runtime reads each slot once before it reuses it.
        M2_ASSERT(!slot.waiter, "second held-back read of M2func offset ",
                  offset);
        slot.waiter = std::move(respond);
        return;
    }
    // Poll status is computed at read time so a spinning host sees
    // progress without rewriting the function arguments.
    if (fn_index == static_cast<std::uint64_t>(M2Func::PollKernelStatus))
        respond(static_cast<std::int64_t>(status(slot.value)));
    else
        respond(slot.value);
}

// --------------------------------------------------------------------------
// Registry and launches
// --------------------------------------------------------------------------

std::int64_t
NdpController::registerKernel(Asid asid, const std::string &text,
                              const KernelResources &res)
{
    auto reject = [this](const char *why) {
        M2_WARN("kernel registration rejected: ", why);
        ++stats_.registrations_rejected;
        return static_cast<std::int64_t>(NdpError::RegistrationFailed);
    };
    // A uthread larger than one sub-core's registers could never spawn.
    if (res.registerBytes() > subcore_reg_bytes_)
        return reject("register request exceeds a sub-core's register file");
    constexpr unsigned kRegs = isa::UthreadContext::kRegsPerFile;
    if (res.num_int_regs < 3 || res.num_int_regs > kRegs ||
        res.num_float_regs > kRegs || res.num_vector_regs > kRegs)
        return reject("needs x0-x2 and at most 32 registers per file");
    if (res.scratchpad_bytes > kSpadBytes)
        return reject("scratchpad request exceeds unit scratchpad");
    auto kernel = std::make_unique<NdpKernel>();
    kernel->id = next_kernel_id_++;
    kernel->asid = asid;
    // Malformed text (bad syntax, unknown uop) rejects the registration
    // with a typed error instead of terminating the simulation.
    std::string asm_error;
    kernel->code = assembler_.assemble(text, asm_error);
    if (!asm_error.empty()) {
        M2_WARN("kernel registration rejected: ", asm_error);
        ++stats_.registrations_rejected;
        return static_cast<std::int64_t>(NdpError::IllegalInstruction);
    }
    kernel->resources = res;
    std::int64_t id = kernel->id;
    kernels_.emplace(id, std::move(kernel));
    return id;
}

const NdpKernel *
NdpController::kernelById(std::int64_t id) const
{
    auto it = kernels_.find(id);
    return it == kernels_.end() ? nullptr : it->second.get();
}

std::int64_t
NdpController::launch(Asid asid, std::int64_t kernel_id, Addr pool_base,
                      Addr pool_bound, const std::uint8_t *args,
                      std::uint32_t args_size,
                      InstanceCompleteFn on_complete, unsigned weight)
{
    auto kit = kernels_.find(kernel_id);
    if (kit == kernels_.end() || kit->second->asid != asid) {
        ++stats_.launches_rejected;
        return static_cast<std::int64_t>(NdpError::InvalidKernel);
    }
    constexpr std::size_t kLaunchQueueCapacity = 4096;
    if (pending_.size() >= kLaunchQueueCapacity) {
        // Launch buffer full: error code back to the host (Section III-C).
        ++stats_.launches_rejected;
        return static_cast<std::int64_t>(NdpError::QueueFull);
    }
    if (pool_bound < pool_base) {
        ++stats_.launches_rejected;
        return static_cast<std::int64_t>(NdpError::BadPoolRegion);
    }

    // A recycled instance starts from a default-constructed one; only its
    // next_work capacity carries over, so a warm launch allocates nothing.
    KernelInstance *inst = instance_pool_.acquire();
    std::vector<std::uint64_t> next_work = std::move(inst->next_work);
    *inst = KernelInstance{};
    inst->next_work = std::move(next_work);
    inst->next_work.assign(num_units_, 0);

    inst->id = next_instance_id_++;
    inst->kernel = kit->second.get();
    inst->asid = asid;
    inst->pool_base = pool_base;
    inst->pool_bound = pool_bound;
    if (args_size > 0)
        std::memcpy(inst->args.data(), args,
                    std::min<std::size_t>(args_size, inst->args.size()));
    inst->weight = static_cast<std::uint8_t>(
        weight == 0 ? 1 : std::min<unsigned>(weight, 255));
    inst->on_complete = std::move(on_complete);

    ++stats_.launches;
    std::int64_t id = inst->id;
    pending_.push(inst);
    admitPending();
    return id;
}

KernelInstance *
NdpController::activeById(std::int64_t id) const
{
    for (KernelInstance *inst : active_) {
        if (inst->id == id)
            return inst;
    }
    return nullptr;
}

KernelStatus
NdpController::status(std::int64_t instance_id) const
{
    // The launch queue holds exactly the ids from its front's on.
    if (!pending_.empty() && instance_id >= pending_.front()->id &&
        instance_id < next_instance_id_)
        return KernelStatus::Pending;
    if (activeById(instance_id) != nullptr)
        return KernelStatus::Running;
    // Ids are handed out in order and an instance is live until it
    // completes, so an issued id that is no longer live has finished.
    if (instance_id <= 0 || instance_id >= next_instance_id_)
        return static_cast<KernelStatus>(kNdpErr);
    return completed_errors_.count(instance_id) ? KernelStatus::Faulted
                                                : KernelStatus::Finished;
}

std::uint64_t
NdpController::instanceSpawned(std::int64_t instance_id) const
{
    const KernelInstance *inst = activeById(instance_id);
    return inst != nullptr ? inst->spawned : 0;
}

void
NdpController::admitPending()
{
    while (!pending_.empty() &&
           active_.size() < cfg_.max_concurrent_instances) {
        auto spad =
            spadAllocate(pending_.front()->kernel->resources.scratchpad_bytes);
        if (!spad)
            return; // wait for scratchpad space to free up
        KernelInstance *inst = pending_.pop();
        inst->spad_offset = *spad;
        activate(inst);
    }
}

void
NdpController::activate(KernelInstance *p)
{
    active_.push_back(p);

    const auto &sections = p->kernel->code.sections;
    M2_ASSERT(!sections.empty(), "kernel with no sections");

    // Arm the watchdog before the first phase begins: beginPhase can
    // complete a degenerate instance synchronously, and a one-shot
    // check by id is naturally idempotent against that.
    if (cfg_.watchdog_budget > 0) {
        std::int64_t id = p->id;
        eq_.scheduleAfter(cfg_.watchdog_budget, [this, id] {
            KernelInstance *inst = activeById(id);
            if (inst == nullptr)
                return; // already completed
            ++stats_.watchdog_kills;
            killInstance(inst, static_cast<std::int64_t>(
                                   NdpError::WatchdogTimeout));
        });
    }

    if (sections.front().kind == isa::SectionKind::Initializer)
        beginPhase(p, InstancePhase::Initializer, 0);
    else
        beginPhase(p, InstancePhase::Body, 0);
}

void
NdpController::killInstance(KernelInstance *inst, std::int64_t code)
{
    if (inst->phase == InstancePhase::Done)
        return;
    M2_ASSERT(inst->isActive(),
              "killInstance on a non-activated instance ", inst->id);
    if (inst->error == 0)
        inst->error = code;

    // Wake every unit so slots parked on a killed instance (e.g. an
    // infinite loop) get culled at their next issue opportunity.
    dev_.wakeUnits(num_units_);
    maybeAdvancePhase(inst);
}

std::uint64_t
NdpController::phaseTarget(const KernelInstance *inst) const
{
    switch (inst->phase) {
      case InstancePhase::Initializer:
      case InstancePhase::Finalizer:
        // One uthread per slot with a unique ID (Section III-G).
        return static_cast<std::uint64_t>(num_units_) *
               slots_per_unit_;
      case InstancePhase::Body:
        return (inst->pool_bound - inst->pool_base + isa::kVlenBytes - 1) /
               isa::kVlenBytes;
      default:
        return 0;
    }
}

void
NdpController::beginPhase(KernelInstance *inst, InstancePhase phase,
                          std::size_t section_index)
{
    inst->phase = phase;
    inst->section_index = section_index;
    inst->spawned = 0;
    inst->completed = 0;
    std::fill(inst->next_work.begin(), inst->next_work.end(), 0);
    inst->phase_target = phaseTarget(inst);
    if (inst->phase_target == 0) {
        // Degenerate phase (e.g. empty pool region): skip forward.
        maybeAdvancePhase(inst);
        return;
    }
    wakeUnitsFor(inst);
}

void
NdpController::wakeUnitsFor(const KernelInstance *inst)
{
    // Body work is statically partitioned (unit u only gets offsets u,
    // u+N, ...), so a pool of k uthreads can feed units [0, k) only.
    // Initializer/Finalizer run one uthread per slot on every unit.
    std::uint64_t units = num_units_;
    if (inst->phase == InstancePhase::Body)
        units = std::min(units, inst->phase_target);
    dev_.wakeUnits(static_cast<unsigned>(units));
}

void
NdpController::maybeAdvancePhase(KernelInstance *inst)
{
    if (inst->error < 0) [[unlikely]] {
        // Killed/faulted: no further phases. Wait for the uthreads that
        // already spawned to retire (running ones are culled at their
        // next issue; memory-waiting ones drain normally), then for
        // posted stores, then complete with the error code.
        if (inst->completed < inst->spawned)
            return;
        inst->phase = InstancePhase::Draining;
        if (inst->outstanding_stores == 0)
            completeInstance(inst);
        return;
    }

    if (inst->spawned < inst->phase_target ||
        inst->completed < inst->phase_target)
        return;

    const auto &sections = inst->kernel->code.sections;
    std::size_t next = inst->section_index + 1;
    if (inst->phase == InstancePhase::Initializer ||
        inst->phase == InstancePhase::Body) {
        if (next < sections.size()) {
            if (sections[next].kind == isa::SectionKind::Body) {
                beginPhase(inst, InstancePhase::Body, next);
                return;
            }
            if (sections[next].kind == isa::SectionKind::Finalizer) {
                beginPhase(inst, InstancePhase::Finalizer, next);
                return;
            }
        }
    }
    // No more sections: drain posted stores, then complete.
    inst->phase = InstancePhase::Draining;
    if (inst->outstanding_stores == 0)
        completeInstance(inst);
}

void
NdpController::completeInstance(KernelInstance *inst)
{
    inst->phase = InstancePhase::Done;
    ++stats_.instances_completed;
    if (inst->error < 0) [[unlikely]] {
        ++stats_.instances_faulted;
        completed_errors_.insert(inst->id);
    }
    spadFree(inst->spad_offset, inst->kernel->resources.scratchpad_bytes);

    auto cb = std::move(inst->on_complete);

    auto it = std::find(active_.begin(), active_.end(), inst);
    M2_ASSERT(it != active_.end(), "completing unknown instance");
    active_.erase(it);

    admitPending();
    if (cb)
        cb(*inst);
    // Recycled only after the hook, which reads the instance.
    instance_pool_.release(inst);
}

// --------------------------------------------------------------------------
// uthread generation (Section III-E: interleaved scheduling)
// --------------------------------------------------------------------------

PullStatus
NdpController::pullWork(unsigned unit, std::uint64_t free_reg_bytes,
                        SpawnItem &out)
{
    // Weighted round robin over active instances: the cursor serves the
    // instance under it `weight` consecutive spawns before advancing, so
    // a wide kernel with near-endless work cannot starve a 1-uthread
    // kernel's spawn (MPS-style fairness across concurrent instances)
    // while priority tenants draw a proportionally larger issue share.
    // This runs once per spawned uthread — with the ready-ring scheduler
    // every sub-core with an idle slot pulls every cycle of a burst, so
    // the cursor wrap is branch arithmetic rather than an integer divide.
    const std::size_t n = active_.size();
    std::size_t idx = rr_instance_ < n ? rr_instance_ : 0;
    for (std::size_t k = 0; k < n; ++k, ++idx) {
        if (idx >= n)
            idx = 0;
        KernelInstance *inst = active_[idx];
        if (!inst->isActive() || inst->phase == InstancePhase::Draining ||
            inst->error < 0)
            continue;
        std::uint64_t next = inst->next_work[unit];
        switch (inst->phase) {
          case InstancePhase::Initializer:
          case InstancePhase::Finalizer:
            // One uthread per slot, x2 = its unique ID (Section III-G).
            if (next >= slots_per_unit_)
                continue;
            out.x1 = layout::kScratchpadVaBase;
            out.x2 = static_cast<std::uint64_t>(unit) *
                         slots_per_unit_ + next;
            break;
          case InstancePhase::Body: {
            // uthreads are interleaved across units at the 32 B mapping
            // granularity: unit u runs offsets u, u+N, u+2N, ...
            std::uint64_t widx = next * num_units_ + unit;
            Addr addr = inst->pool_base + widx * isa::kVlenBytes;
            if (addr >= inst->pool_bound)
                continue;
            out.x1 = addr;
            out.x2 = widx * isa::kVlenBytes;
            break;
          }
          default:
            continue;
        }
        // The uthread under the cursor waits for registers rather than
        // letting later work overtake it; nothing is committed yet.
        if (inst->kernel->resources.registerBytes() > free_reg_bytes)
            return PullStatus::Blocked;
        inst->next_work[unit] = next + 1;
        ++inst->spawned;
        out.instance = inst;
        out.section = &inst->kernel->code.sections[inst->section_index];
        if (idx == rr_instance_ && rr_credit_ > 0) {
            --rr_credit_;
        } else {
            // Cursor landed on a new instance (or a fresh burst): grant
            // its weight worth of consecutive spawns, this one included.
            rr_instance_ = idx;
            rr_credit_ = inst->weight - 1u;
        }
        if (rr_credit_ == 0)
            rr_instance_ = idx + 1 == n ? 0 : idx + 1;
        return PullStatus::Spawn;
    }
    ++stats_.pulls_empty;
    return PullStatus::Empty;
}

void
NdpController::uthreadFinished(KernelInstance *inst)
{
    ++inst->completed;
    maybeAdvancePhase(inst);
}

void
NdpController::storeIssued(KernelInstance *inst)
{
    ++inst->outstanding_stores;
}

void
NdpController::storeDrained(KernelInstance *inst)
{
    M2_ASSERT(inst->outstanding_stores > 0, "store drain underflow");
    if (--inst->outstanding_stores == 0 &&
        inst->phase == InstancePhase::Draining) {
        completeInstance(inst);
    }
}

// --------------------------------------------------------------------------
// Scratchpad allocation (identical offset on every unit)
// --------------------------------------------------------------------------

std::optional<std::uint64_t>
NdpController::spadAllocate(std::uint64_t size)
{
    if (size == 0)
        return 0;
    size = alignUp(size, 64);
    for (auto it = spad_free_.begin(); it != spad_free_.end(); ++it) {
        if (it->second >= size) {
            std::uint64_t offset = it->first;
            std::uint64_t remaining = it->second - size;
            spad_free_.erase(it);
            if (remaining > 0)
                spad_free_[offset + size] = remaining;
            return offset;
        }
    }
    return std::nullopt;
}

void
NdpController::spadFree(std::uint64_t offset, std::uint64_t size)
{
    if (size == 0)
        return;
    size = alignUp(size, 64);
    auto [it, inserted] = spad_free_.emplace(offset, size);
    M2_ASSERT(inserted, "double free of scratchpad region");
    // Merge with the next block.
    auto next = std::next(it);
    if (next != spad_free_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        spad_free_.erase(next);
    }
    // Merge with the previous block.
    if (it != spad_free_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            spad_free_.erase(it);
        }
    }
}

} // namespace m2ndp
