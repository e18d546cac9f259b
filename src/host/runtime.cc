#include "host/runtime.hh"

#include <cstring>

#include "common/log.hh"

namespace m2ndp {

const char *
offloadSchemeName(OffloadScheme scheme)
{
    switch (scheme) {
      case OffloadScheme::M2Func: return "M2func";
      case OffloadScheme::CxlIoRingBuffer: return "CXL.io_RB";
      case OffloadScheme::CxlIoDirect: return "CXL.io_DR";
    }
    return "?";
}

// --------------------------------------------------------------------------
// NdpEvent
// --------------------------------------------------------------------------

bool
NdpEvent::done() const
{
    return rec_ == nullptr || rec_->done;
}

unsigned
NdpEvent::device() const
{
    return rec_ != nullptr ? rec_->device : 0;
}

std::int64_t
NdpEvent::instanceId() const
{
    return rec_ != nullptr ? rec_->instance_id : kNdpErr;
}

bool
NdpEvent::failed() const
{
    return rec_ != nullptr && rec_->done && rec_->instance_id < 0;
}

NdpError
NdpEvent::error() const
{
    if (rec_ == nullptr)
        return NdpError::Unknown;
    if (!rec_->done)
        return NdpError::Ok;
    return ndpErrorOf(rec_->instance_id);
}

Tick
NdpEvent::completedAt() const
{
    return rec_ != nullptr ? rec_->completed_at : 0;
}

std::int64_t
NdpEvent::wait()
{
    if (rec_ == nullptr)
        return kNdpErr;
    rt_->waitFor(rec_);
    return rec_->instance_id;
}

void
NdpEvent::onComplete(LaunchCallback cb)
{
    M2_ASSERT(rec_ != nullptr, "onComplete on an empty event");
    if (rec_->done) {
        if (cb)
            cb(rec_->instance_id, rec_->completed_at);
        return;
    }
    M2_ASSERT(!rec_->on_complete, "launch already has a completion hook");
    rec_->on_complete = std::move(cb);
}

void
NdpEvent::release()
{
    if (rec_ != nullptr) {
        rt_->releaseRecordRef(rec_);
        rec_ = nullptr;
        rt_ = nullptr;
    }
}

// --------------------------------------------------------------------------
// NdpStream
// --------------------------------------------------------------------------

NdpEvent
NdpStream::launch(const LaunchDesc &desc)
{
    LaunchRecord *rec = rt_.makeRecord(desc, device_);
    ++launched_;
    if (rec->done) {
        // Rejected at submit time (bad kernel handle): the event carries
        // the error; nothing enters the queue.
        ++completed_;
        return NdpEvent(&rt_, rec);
    }
    // QoS stamps: the stream's relative deadline resolves to an absolute
    // one at submit; the stream priority rides every launch to the
    // device WRR.
    if (default_deadline_ != 0)
        rec->deadline = rt_.eq_.now() + default_deadline_;
    rec->weight = priority_;
    if (queue_limit_ != 0 && queue_.size() >= queue_limit_) [[unlikely]] {
        // Admission control: a full bounded stream queue rejects the
        // launch immediately with a typed error instead of growing
        // without bound. The rejection is not a stream fault — fail-fast
        // does not trip, and the caller may resubmit later.
        rec->done = true;
        rec->instance_id = static_cast<std::int64_t>(NdpError::Overloaded);
        rec->completed_at = rt_.eq_.now();
        ++completed_;
        ++rt_.stats_.overload_rejections;
        rt_.releaseRecordRef(rec); // runtime side is already finished
        return NdpEvent(&rt_, rec);
    }
    rec->stream = this;
    queue_.push(rec);
    pump();
    return NdpEvent(&rt_, rec);
}

void
NdpStream::pump()
{
    if (in_flight_ || queue_.empty())
        return;
    in_flight_ = true;
    rt_.issueRecord(queue_.pop());
}

void
NdpStream::recordCompleted(LaunchRecord *rec)
{
    ++completed_;
    in_flight_ = false;
    if (rec->instance_id < 0 && policy_ == StreamPolicy::FailFast)
        [[unlikely]]
        abortQueued(rec->completed_at);
    pump();
}

void
NdpStream::abortQueued(Tick now)
{
    // Queued records never reached issueRecord, so they are not counted
    // in flight: complete them here instead of via completeRecord.
    while (!queue_.empty()) {
        LaunchRecord *rec = queue_.pop();
        rec->done = true;
        rec->instance_id = static_cast<std::int64_t>(NdpError::Aborted);
        rec->completed_at = now;
        ++completed_;
        ++rt_.stats_.aborted_launches;
        if (rec->on_complete) {
            auto cb = std::move(rec->on_complete);
            cb(rec->instance_id, now);
        }
        rt_.releaseRecordRef(rec); // the runtime's reference
    }
}

void
NdpStream::synchronize()
{
    rt_.port(device_).eventQueue().stepUntil([this] { return idle(); },
                                              "stream launches");
}

// --------------------------------------------------------------------------
// NdpRuntime — construction, registry, management calls
// --------------------------------------------------------------------------

NdpRuntime::NdpRuntime(std::vector<HostCxlPort *> ports,
                       ProcessAddressSpace &process,
                       std::vector<Addr> m2func_region_pas,
                       NdpRuntimeConfig cfg)
    : eq_(ports.at(0)->eventQueue()), process_(process), cfg_(cfg)
{
    M2_ASSERT(ports.size() == m2func_region_pas.size(),
              "one M2func region per device port required");
    devs_.resize(ports.size());
    for (std::size_t d = 0; d < ports.size(); ++d) {
        devs_[d].port = ports[d];
        devs_[d].m2func_pa = m2func_region_pas[d];
        devs_[d].slot_pending.assign(kM2FuncLaunchSlots, 0);
        devs_[d].kernel_ids.push_back(kNdpErr); // handle 0 is invalid
    }
    // Token bucket: integer ticks per token so refills are exact and
    // deterministic (no floating point accumulates into sim time).
    if (cfg_.rate_limit > 0.0) {
        tb_period_ = static_cast<Tick>(1e12 / cfg_.rate_limit);
        if (tb_period_ == 0)
            tb_period_ = 1;
        tb_tokens_ = cfg_.rate_burst != 0 ? cfg_.rate_burst : 1;
        tb_last_refill_ = eq_.now();
    }
    // Staging buffer for kernel source text (written once per register).
    code_staging_va_ = process_.allocate(256 * kKiB);
}

NdpRuntime::~NdpRuntime() = default;

std::int64_t
NdpRuntime::registerKernel(const std::string &source,
                           const KernelResources &res)
{
    // 1) Place the kernel text in CXL memory (normal CXL.mem writes; large
    //    inputs travel as data, not as function arguments). The staging
    //    buffer is in the shared address space, so one upload serves every
    //    device's register call.
    auto &dev0 = devs_[0].port->device();
    for (std::uint64_t off = 0; off < source.size();
         off += SparseMemory::kFrameSize) {
        auto pa = process_.translate(code_staging_va_ + off);
        M2_ASSERT(pa.has_value(), "staging buffer unmapped");
        std::uint64_t chunk = std::min<std::uint64_t>(
            SparseMemory::kFrameSize, source.size() - off);
        // Functional content write; timing for the bulk copy is not on the
        // offloading critical path (done once at setup).
        std::string piece = source.substr(off, chunk);
        dev0.funcWrite(*pa, piece.data(), piece.size());
    }

    // 2) Call the register function on every device; the runtime handle
    //    maps to the per-device kernel ids.
    std::uint8_t payload[19] = {};
    std::uint64_t loc = code_staging_va_;
    auto size32 = static_cast<std::uint32_t>(source.size());
    std::memcpy(payload + 0, &loc, 8);
    std::memcpy(payload + 8, &size32, 4);
    std::memcpy(payload + 12, &res.scratchpad_bytes, 4);
    payload[16] = res.num_int_regs;
    payload[17] = res.num_float_regs;
    payload[18] = res.num_vector_regs;

    std::vector<std::int64_t> ids;
    for (auto &dev : devs_) {
        Addr addr = funcAddr(dev, M2Func::RegisterKernel);
        dev.port->write(addr, payload, sizeof(payload));
        // fence (store->load ordering) is implicit in the blocking calls
        std::int64_t id = dev.port->read<std::int64_t>(addr);
        if (id < 0) {
            // Roll back the devices that already accepted the kernel so
            // a failed registration leaks nothing and can be retried.
            for (std::size_t d = 0; d < ids.size(); ++d) {
                Addr ua = funcAddr(devs_[d], M2Func::UnregisterKernel);
                devs_[d].port->write(ua, &ids[d], 8);
                devs_[d].port->read<std::int64_t>(ua);
            }
            return id; // the device's typed rejection code
        }
        ids.push_back(id);
    }
    std::int64_t handle = next_kernel_handle_++;
    for (std::size_t d = 0; d < devs_.size(); ++d)
        devs_[d].kernel_ids.push_back(ids[d]);
    return handle;
}

std::int64_t
NdpRuntime::unregisterKernel(std::int64_t kernel_id)
{
    std::int64_t result = 0;
    for (auto &dev : devs_) {
        std::int64_t dev_id = deviceKernelId(dev, kernel_id);
        if (dev_id < 0)
            return dev_id;
        Addr addr = funcAddr(dev, M2Func::UnregisterKernel);
        dev.port->write(addr, &dev_id, 8);
        std::int64_t r = dev.port->read<std::int64_t>(addr);
        if (r < 0)
            result = r;
    }
    if (result == 0 &&
        kernel_id > 0 &&
        static_cast<std::size_t>(kernel_id) < devs_[0].kernel_ids.size()) {
        for (auto &dev : devs_)
            dev.kernel_ids[static_cast<std::size_t>(kernel_id)] = kNdpErr;
    }
    return result;
}

NdpStream &
NdpRuntime::createStream(unsigned device)
{
    M2_ASSERT(device < devs_.size(), "stream bound to nonexistent device");
    streams_.push_back(
        std::unique_ptr<NdpStream>(new NdpStream(*this, device)));
    return *streams_.back();
}

KernelStatus
NdpRuntime::pollKernelStatus(std::int64_t instance_id, unsigned device)
{
    DeviceState &dev = devs_.at(device);
    if (cfg_.scheme == OffloadScheme::M2Func) {
        Addr addr = funcAddr(dev, M2Func::PollKernelStatus);
        dev.port->write(addr, &instance_id, 8);
        return static_cast<KernelStatus>(dev.port->read<std::int64_t>(addr));
    }
    // CXL.io poll: one expensive MMIO/polling round trip, 2-3 us per
    // Section II-C.
    constexpr Tick kCxlIoPollLatency = 2 * kUs;
    bool done = false;
    eq_.scheduleAfter(kCxlIoPollLatency, [&done] { done = true; });
    dev.port->eventQueue().stepUntil([&done] { return done; },
                                     "a CXL.io poll");
    return dev.port->device().controller().status(instance_id);
}

std::int64_t
NdpRuntime::shootdownTlbEntry(Asid asid, Addr va)
{
    std::uint8_t payload[10] = {};
    std::memcpy(payload, &va, 8);
    std::memcpy(payload + 8, &asid, 2);
    std::int64_t result = 0;
    for (auto &dev : devs_) {
        Addr addr = funcAddr(dev, M2Func::ShootdownTlbEntry);
        dev.port->write(addr, payload, sizeof(payload));
        std::int64_t r = dev.port->read<std::int64_t>(addr);
        if (r < 0)
            result = r;
    }
    return result;
}

void
NdpRuntime::synchronize()
{
    for (auto &s : streams_)
        s->synchronize();
}

std::int64_t
NdpRuntime::deviceKernelId(const DeviceState &dev,
                           std::int64_t kernel) const
{
    if (kernel <= 0 ||
        static_cast<std::size_t>(kernel) >= dev.kernel_ids.size())
        return static_cast<std::int64_t>(NdpError::InvalidKernel);
    return dev.kernel_ids[static_cast<std::size_t>(kernel)];
}

// --------------------------------------------------------------------------
// Launch-record pool
// --------------------------------------------------------------------------

void
NdpRuntime::releaseRecordRef(LaunchRecord *rec)
{
    M2_ASSERT(rec->refs > 0, "launch record refcount underflow");
    if (--rec->refs == 0) {
        rec->on_complete.reset();
        record_pool_.release(rec);
    }
}

LaunchRecord *
NdpRuntime::makeRecord(const LaunchDesc &desc, unsigned device)
{
    M2_ASSERT(device < devs_.size(), "launch to nonexistent device");
    LaunchRecord *rec = record_pool_.acquire();
    *rec = LaunchRecord{}; // a recycled record starts from scratch
    rec->rt = this;
    rec->desc = desc;
    rec->device = device;
    rec->refs = 2; // runtime (until completion) + event handle
    if (deviceKernelId(devs_[device], desc.kernel()) < 0) {
        // Reject unknown kernel handles at submit time, mirroring the
        // device's own validation; the event completes immediately with
        // the error code.
        rec->done = true;
        rec->instance_id =
            static_cast<std::int64_t>(NdpError::InvalidKernel);
        rec->completed_at = eq_.now();
        releaseRecordRef(rec); // runtime side is already finished
    }
    return rec;
}

// --------------------------------------------------------------------------
// Issue paths
// --------------------------------------------------------------------------

void
NdpRuntime::issueRecord(LaunchRecord *rec)
{
    if (!deviceHealthy(rec->device)) [[unlikely]] {
        // Graceful degradation: re-route to a surviving device (every
        // kernel handle is registered on every device, so the record's
        // descriptor stays valid). With no survivor the launch completes
        // immediately with DeviceLost.
        int alt = findHealthyDevice();
        if (alt >= 0) {
            ++stats_.failovers;
            rec->device = static_cast<unsigned>(alt);
        }
    }
    ++stats_.launches;
    ++stats_.in_flight;
    stats_.peak_in_flight = std::max(stats_.peak_in_flight,
                                     stats_.in_flight);
    // Deadline-aware shedding at the door: an expired launch never costs
    // device time.
    if (shedIfExpired(rec)) [[unlikely]]
        return;
    // Per-tenant rate limiter. Retries re-enter here too, so a backoff
    // burst cannot stampede past the tenant's configured rate.
    if (tb_period_ != 0) {
        refillTokens();
        if (tb_tokens_ == 0) {
            ++stats_.throttled_launches;
            tb_wait_.push(rec);
            scheduleRateLimiterPump();
            return;
        }
        --tb_tokens_;
    }
    issueAdmitted(rec);
}

void
NdpRuntime::issueAdmitted(LaunchRecord *rec)
{
    if (devs_[rec->device].lost) [[unlikely]] {
        completeRecord(rec, static_cast<std::int64_t>(NdpError::DeviceLost),
                       eq_.now());
        return;
    }
    switch (cfg_.scheme) {
      case OffloadScheme::M2Func: issueM2Func(rec); return;
      case OffloadScheme::CxlIoRingBuffer: issueRingBuffer(rec); return;
      case OffloadScheme::CxlIoDirect: issueDirect(rec); return;
    }
}

// ---- admission control (docs/robustness.md "Overload protection") ----

void
NdpRuntime::failRecordAsync(LaunchRecord *rec, NdpError err)
{
    // Same-tick event rather than an inline call: rejecting the head of a
    // deep stream queue would otherwise recurse completeRecord -> stream
    // pump -> issueRecord -> reject for every queued launch.
    std::int64_t code = static_cast<std::int64_t>(err);
    eq_.scheduleAfter(0, [rec, code] {
        rec->rt->completeRecord(rec, code, rec->rt->eq_.now());
    });
}

bool
NdpRuntime::deadlineExpired(const LaunchRecord *rec) const
{
    return rec->deadline != 0 && eq_.now() > rec->deadline;
}

bool
NdpRuntime::shedIfExpired(LaunchRecord *rec)
{
    // An absolute deadline cannot be met by re-issuing, so a shed is
    // terminal (see completeRecord).
    if (!deadlineExpired(rec)) [[likely]]
        return false;
    ++stats_.deadline_shed;
    failRecordAsync(rec, NdpError::DeadlineExceeded);
    return true;
}

void
NdpRuntime::refillTokens()
{
    Tick now = eq_.now();
    if (now <= tb_last_refill_)
        return;
    std::uint64_t accrued = (now - tb_last_refill_) / tb_period_;
    if (accrued == 0)
        return;
    std::uint64_t cap = cfg_.rate_burst != 0 ? cfg_.rate_burst : 1;
    if (tb_tokens_ + accrued >= cap) {
        tb_tokens_ = cap;
        tb_last_refill_ = now; // a full bucket accrues nothing
    } else {
        tb_tokens_ += accrued;
        tb_last_refill_ += accrued * tb_period_;
    }
}

void
NdpRuntime::scheduleRateLimiterPump()
{
    if (tb_pump_scheduled_)
        return;
    tb_pump_scheduled_ = true;
    Tick next = tb_last_refill_ + tb_period_;
    Tick now = eq_.now();
    eq_.scheduleAfter(next > now ? next - now : 0,
                      [this] { pumpRateLimiter(); });
}

void
NdpRuntime::pumpRateLimiter()
{
    tb_pump_scheduled_ = false;
    refillTokens();
    while (!tb_wait_.empty()) {
        // Shedding needs no token; waiting for one would only make the
        // launch later still.
        if (shedIfExpired(tb_wait_.front())) [[unlikely]] {
            tb_wait_.pop();
            continue;
        }
        if (tb_tokens_ == 0)
            break;
        --tb_tokens_;
        issueAdmitted(tb_wait_.pop());
    }
    if (!tb_wait_.empty())
        scheduleRateLimiterPump();
}

void
NdpRuntime::completeRecord(LaunchRecord *rec, std::int64_t iid, Tick t)
{
    if (iid < 0) [[unlikely]] {
        NdpStream *s = rec->stream;
        // An absolute deadline can never be met by re-issuing: shed
        // launches are terminal, or a shed->retry loop would burn every
        // attempt without ever reaching the device.
        bool terminal =
            iid == static_cast<std::int64_t>(NdpError::DeadlineExceeded);
        if (!terminal && s != nullptr && s->policy_ == StreamPolicy::Retry &&
            rec->attempts < s->max_retries_) {
            // Exponential backoff, then a full re-issue: the record stays
            // the stream's in-flight launch (in-order semantics hold) and
            // the re-issue re-routes around lost devices. The shift is
            // clamped so high retry budgets cannot overflow the delay.
            ++rec->attempts;
            ++stats_.relaunches;
            --stats_.in_flight;
            unsigned shift =
                std::min<unsigned>(rec->attempts - 1u, 16u);
            Tick delay = s->retry_backoff_ << shift;
            eq_.scheduleAfter(delay, [rec] { rec->rt->issueRecord(rec); });
            return;
        }
        ++stats_.faulted_completions;
    }
    rec->done = true;
    rec->instance_id = iid;
    rec->completed_at = t;
    ++stats_.completions;
    --stats_.in_flight;
    if (rec->on_complete) {
        auto cb = std::move(rec->on_complete);
        cb(iid, t);
    }
    if (rec->stream != nullptr)
        rec->stream->recordCompleted(rec);
    releaseRecordRef(rec);
}

void
NdpRuntime::waitFor(LaunchRecord *rec)
{
    eq_.stepUntil([rec] { return rec->done; }, "a launch");
}

bool
NdpRuntime::deviceHealthy(unsigned device)
{
    DeviceState &dev = devs_[device];
    if (dev.lost) [[unlikely]]
        return false;
    if (dev.port->link().isDownAt(eq_.now())) [[unlikely]] {
        markDeviceLost(device);
        return false;
    }
    return true;
}

void
NdpRuntime::markDeviceLost(unsigned device)
{
    DeviceState &dev = devs_[device];
    if (dev.lost)
        return;
    dev.lost = true; // set first: drained completions must not re-route here
    ++stats_.devices_lost;
    std::int64_t code = static_cast<std::int64_t>(NdpError::DeviceLost);
    // Fail everything queued on this device. Completion may pump the
    // owning streams, whose next launches then re-route via issueRecord.
    for (IntrusiveFifo<LaunchRecord> *q : {&dev.m2f_wait, &dev.direct_wait}) {
        while (!q->empty())
            completeRecord(q->pop(), code, eq_.now());
    }
}

int
NdpRuntime::findHealthyDevice()
{
    for (unsigned d = 0; d < devs_.size(); ++d)
        if (deviceHealthy(d))
            return static_cast<int>(d);
    return -1;
}

std::int64_t
NdpRuntime::launchKernelSync(const LaunchDesc &desc, unsigned device)
{
    LaunchRecord *rec = makeRecord(desc, device);
    if (!rec->done)
        issueRecord(rec);
    NdpEvent ev(this, rec);
    return ev.wait();
}

// ---- M2func (Fig. 5a): store args, deferred return-value load ----

void
NdpRuntime::issueM2Func(LaunchRecord *rec)
{
    DeviceState &dev = devs_[rec->device];
    if (cfg_.device_queue_limit != 0 &&
        dev.m2f_wait.size() >= cfg_.device_queue_limit) [[unlikely]] {
        // Bounded device queue: overflow is a typed rejection, never
        // silent unbounded growth. Failovers land here too, so a
        // surviving device's admission limit holds when its peers die.
        ++stats_.overload_rejections;
        failRecordAsync(rec, NdpError::Overloaded);
        return;
    }
    // Queue, then drain: the pump owns the free-slot scan, so launches
    // that find a slot immediately and launches that waited share one
    // assignment path.
    dev.m2f_wait.push(rec);
    pumpM2FuncQueue(dev);
}

void
NdpRuntime::pumpM2FuncQueue(DeviceState &dev)
{
    while (!dev.m2f_wait.empty()) {
        // A launch whose deadline passed while it waited is shed before
        // it can consume a slot the live launches behind it need.
        if (shedIfExpired(dev.m2f_wait.front())) [[unlikely]] {
            dev.m2f_wait.pop();
            continue;
        }
        unsigned slot = kM2FuncLaunchSlots;
        for (unsigned k = 0; k < kM2FuncLaunchSlots; ++k) {
            unsigned cand = (dev.rr_slot + k) % kM2FuncLaunchSlots;
            if (dev.slot_pending[cand] == 0) {
                slot = cand;
                break;
            }
        }
        if (slot == kM2FuncLaunchSlots)
            return;
        LaunchRecord *rec = dev.m2f_wait.pop();
        // Batch probe: when a backlog exists and both the head and the
        // next launch fit the compact half-format, they share one 64 B
        // store (and one slot), halving the stores per launch under
        // load. Full-format launches (> 8 B of inline args) keep the
        // exact single-launch wire timing.
        LaunchRecord *mate = nullptr;
        if (!dev.m2f_wait.empty() &&
            rec->desc.argSize() <= kCompactMaxArgBytes &&
            dev.m2f_wait.front()->desc.argSize() <= kCompactMaxArgBytes &&
            !deadlineExpired(dev.m2f_wait.front()))
            mate = dev.m2f_wait.pop();
        dev.rr_slot = (slot + 1) % kM2FuncLaunchSlots;
        dev.slot_pending[slot] = mate != nullptr ? 2 : 1;
        m2funcLaunchOn(dev, slot, rec, mate);
    }
}

LaunchWire
NdpRuntime::wireOf(const DeviceState &dev, const LaunchRecord *rec) const
{
    static_assert(LaunchDesc::kMaxArgBytes == LaunchWire::kMaxArgBytes,
                  "LaunchDesc's inline args must fit the full layout");
    LaunchWire w;
    w.sync = true;
    w.weight = rec->weight;
    w.kernel = deviceKernelId(dev, rec->desc.kernel());
    w.base = rec->desc.poolBase();
    w.bound = rec->desc.poolBound();
    w.args = rec->desc.argData();
    w.args_size = rec->desc.argSize();
    return w;
}

void
NdpRuntime::m2funcLaunchOn(DeviceState &dev, unsigned slot,
                           LaunchRecord *rec, LaunchRecord *mate)
{
    // Synchronous-launch protocol on a private slot (Fig. 5a): the write
    // carries the arguments, and the return-value read is *deferred by the
    // device until the kernel terminates* — so its arrival doubles as the
    // completion notification, with no extra poll round trip.
    rec->slot = slot;
    Addr addr = dev.m2func_pa +
                (kM2FuncLaunchSlotBase +
                 slot * kM2FuncLaunchSlotStride) * kM2FuncStride;
    M2FuncPayload payload;
    if (mate == nullptr) {
        wireOf(dev, rec).encode(payload, 0, LaunchWire::Layout::Full);
    } else [[unlikely]] {
        // Batched launch: two compact halves share the 64 B store; each
        // half resolves through its own return offset, so completions
        // stay independent even though the launches travelled together.
        mate->slot = slot;
        wireOf(dev, rec).encode(payload, 0, LaunchWire::Layout::Compact);
        wireOf(dev, mate).encode(payload, kCompactLaunchBytes,
                                 LaunchWire::Layout::Compact);
        ++stats_.batched_stores;
    }
    dev.port->writeAsync(addr, payload.bytes.data(), payload.size, {});
    // The deferred return-value read carries the instance id in its DRS:
    // the device fills m2f_ret at response formation, after the
    // controller wrote the return slot.
    rec->m2f_ret = kNdpErr;
    dev.port->readAsync(addr, 8, &rec->m2f_ret, [rec](Tick t) {
        rec->rt->m2funcReturned(rec, t);
    });
    if (mate != nullptr) {
        mate->m2f_ret = kNdpErr;
        dev.port->readAsync(addr + kM2FuncStride, 8, &mate->m2f_ret,
                            [mate](Tick t) {
                                mate->rt->m2funcReturned(mate, t);
                            });
    }
}

void
NdpRuntime::m2funcReturned(LaunchRecord *rec, Tick t)
{
    DeviceState &dev = devs_[rec->device];
    M2_ASSERT(dev.slot_pending[rec->slot] > 0,
              "M2func return for a free slot");
    --dev.slot_pending[rec->slot];
    if (!deviceHealthy(rec->device)) [[unlikely]] {
        // The read aborted at a dead link: whatever the return slot holds
        // never reached the host. Surface the loss, not stale data.
        completeRecord(rec,
                       static_cast<std::int64_t>(NdpError::DeviceLost), t);
        return;
    }
    std::int64_t iid = rec->m2f_ret;
    // A batched slot stays occupied until both deferred reads returned.
    if (dev.slot_pending[rec->slot] == 0)
        pumpM2FuncQueue(dev);
    completeRecord(rec, iid, t);
}

// ---- CXL.io ring buffer (Fig. 5b) ----

void
NdpRuntime::issueRingBuffer(LaunchRecord *rec)
{
    // CMD enqueue + doorbell + command fetch: kernel starts 5y after the
    // host initiates; completion (CMP + host check) reaches the host 3y
    // after kernel end. The doorbell crosses onto the device partition
    // (5y >> the link lookahead); the completion crosses back.
    Tick y = cfg_.io.oneway_latency;
    DeviceState &dev = devs_[rec->device];
    dev.port->postToDeviceAt(eq_.now() + 5 * y, [rec, y] {
        rec->rt->cxlIoArrived(rec, 3 * y);
    });
}

// ---- CXL.io direct MMIO (Fig. 5c): device-wide serialization ----

void
NdpRuntime::issueDirect(LaunchRecord *rec)
{
    DeviceState &dev = devs_[rec->device];
    dev.direct_wait.push(rec);
    pumpDirectQueue(dev);
}

void
NdpRuntime::pumpDirectQueue(DeviceState &dev)
{
    if (dev.direct_busy || dev.direct_wait.empty())
        return;
    dev.direct_busy = true;
    LaunchRecord *rec = dev.direct_wait.pop();
    // Fig. 5c: MMIO doorbell: kernel starts 2y after initiation; the
    // result register read costs another y after kernel end.
    Tick y = cfg_.io.oneway_latency;
    dev.port->postToDeviceAt(eq_.now() + 2 * y,
                             [rec, y] { rec->rt->cxlIoArrived(rec, y); });
}

void
NdpRuntime::cxlIoArrived(LaunchRecord *rec, Tick return_latency)
{
    // Runs on the device partition: controller state is device-owned;
    // runtime/stream state (and the direct scheme's busy flag and queue)
    // is only touched back on the host side. A rejected launch pays the
    // same return latency as a finished one.
    auto complete_on_host = [rec, return_latency](std::int64_t ret) {
        HostCxlPort *port = rec->rt->devs_[rec->device].port;
        port->postToHostAt(
            port->deviceQueue().now() + return_latency, [rec, ret] {
                NdpRuntime *rt = rec->rt;
                DeviceState &d = rt->devs_[rec->device];
                bool direct = rt->cfg_.scheme == OffloadScheme::CxlIoDirect;
                if (direct)
                    d.direct_busy = false;
                rt->completeRecord(rec, ret, rt->eq_.now());
                if (direct)
                    rt->pumpDirectQueue(d);
            });
    };
    DeviceState &dev = devs_[rec->device];
    std::int64_t iid = dev.port->device().controller().launch(
        process_.asid(), deviceKernelId(dev, rec->desc.kernel()),
        rec->desc.poolBase(), rec->desc.poolBound(), rec->desc.argData(),
        rec->desc.argSize(),
        [complete_on_host](const KernelInstance &inst) {
            complete_on_host(inst.returnValue());
        });
    if (iid < 0)
        complete_on_host(iid);
}

} // namespace m2ndp
