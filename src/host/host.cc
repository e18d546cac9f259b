#include "host/host.hh"

#include <cstring>

#include "common/log.hh"

namespace m2ndp {

HostCxlPort::HostCxlPort(EventQueue &eq, CxlLink &link,
                         CxlMemoryExpander &dev, SimDomain &domain,
                         unsigned device_partition)
    : eq_(eq), dev_eq_(dev.eventQueue()), link_(link), dev_(dev),
      domain_(domain), dev_pid_(device_partition)
{
}

HostCxlPort::~HostCxlPort() = default;

HostCxlPort::HostAccess *
HostCxlPort::allocAccess()
{
    HostAccess *a = access_pool_.acquire();
    a->port = this;
    a->done.reset();
    a->failed = false;
    a->read_out = nullptr;
    return a;
}

void
HostCxlPort::releaseAccess(HostAccess *a)
{
    a->done.reset();
    access_pool_.release(a);
}

bool
HostCxlPort::abortIfDown(HostAccess *a)
{
    if (!link_.isDownAt(eq_.now())) [[likely]]
        return false;
    a->failed = true;
    finish(a);
    return true;
}

bool
HostCxlPort::abortIfDownAtDevice(HostAccess *a)
{
    if (!link_.isDownAt(dev_eq_.now())) [[likely]]
        return false;
    a->failed = true;
    postToHostAt(dev_eq_.now() + link_.config().oneway_latency,
                 [a] { a->port->finish(a); });
    return true;
}

void
HostCxlPort::postToDeviceAt(Tick when, EventCallback cb)
{
    domain_.post(SimDomain::kHost, dev_pid_, when, std::move(cb));
}

void
HostCxlPort::postToHostAt(Tick when, EventCallback cb)
{
    domain_.post(dev_pid_, SimDomain::kHost, when, std::move(cb));
}

// --------------------------------------------------------------------------
// CXL.mem chain: M2S RwD -> S2M NDR for writes, M2S Req -> S2M DRS for reads
// --------------------------------------------------------------------------

void
HostCxlPort::writeAsync(Addr hpa, const void *data, std::uint32_t size,
                        TickCallback done)
{
    M2_ASSERT(size <= HostAccess::kInlineBytes,
              "a CXL.mem write carries at most one 64 B line, got ", size);
    ++stats_.writes;
    HostAccess *a = allocAccess();
    a->hpa = hpa;
    a->size = size;
    a->is_write = true;
    a->done = std::move(done);
    std::memcpy(a->inline_data, data, size);
    eq_.scheduleAfter(kHostOverhead, [a] { a->port->deliver(a); });
}

void
HostCxlPort::readAsync(Addr hpa, std::uint32_t size, TickCallback done)
{
    readAsync(hpa, size, nullptr, std::move(done));
}

void
HostCxlPort::readAsync(Addr hpa, std::uint32_t size, void *out,
                       TickCallback done)
{
    ++stats_.reads;
    HostAccess *a = allocAccess();
    a->hpa = hpa;
    a->size = size;
    a->is_write = false;
    a->read_out = out;
    a->done = std::move(done);
    eq_.scheduleAfter(kHostOverhead, [a] { a->port->deliver(a); });
}

void
HostCxlPort::deliver(HostAccess *a)
{
    if (abortIfDown(a))
        return;
    Tick arrive = link_.down().send(a->is_write
                                        ? link_.writeReqBytes(a->size)
                                        : link_.readReqBytes());
    postToDeviceAt(arrive, [a] { a->port->atDevice(a); });
}

void
HostCxlPort::atDevice(HostAccess *a)
{
    if (abortIfDownAtDevice(a))
        return;
    auto done = [a](Tick t) { a->port->deviceDone(a, t); };
    if (a->is_write)
        dev_.cxlWrite(a->hpa, a->inline_data, a->size, done);
    else
        dev_.cxlRead(a->hpa, a->size, done);
}

void
HostCxlPort::deviceDone(HostAccess *a, Tick t)
{
    Tick at = std::max(dev_eq_.now(), t);
    dev_eq_.schedule(at, [a] { a->port->respond(a); });
}

void
HostCxlPort::respond(HostAccess *a)
{
    if (abortIfDownAtDevice(a))
        return;
    std::uint32_t bytes = link_.ndrBytes();
    if (!a->is_write) {
        // The S2M DRS carries the data: capture the functional bytes at
        // response-formation time, on the device partition. The
        // destination buffer is quiescent while the access is in flight;
        // the mailbox handoff publishes the bytes to the host thread
        // before `done` runs.
        if (a->read_out != nullptr)
            dev_.funcRead(a->hpa, a->read_out, a->size);
        bytes = link_.dataRespBytes(a->size);
    }
    Tick back = link_.up().send(bytes);
    postToHostAt(back + kHostOverhead, [a] { a->port->finish(a); });
}

void
HostCxlPort::finish(HostAccess *a)
{
    Tick now = eq_.now();
    if (a->failed)
        ++stats_.link_aborts;
    TickCallback done = std::move(a->done);
    releaseAccess(a);
    if (done)
        done(now);
}

// --------------------------------------------------------------------------
// Blocking helpers
// --------------------------------------------------------------------------

void
HostCxlPort::runUntil(const bool &flag)
{
    while (!flag) {
        if (!eq_.step())
            M2_PANIC("event queue drained while waiting for host access");
    }
}

Tick
HostCxlPort::write(Addr hpa, const void *data, std::uint32_t size)
{
    bool done = false;
    Tick when = 0;
    writeAsync(hpa, data, size, [&](Tick t) {
        done = true;
        when = t;
    });
    runUntil(done);
    return when;
}

Tick
HostCxlPort::read(Addr hpa, void *out, std::uint32_t size)
{
    bool done = false;
    Tick when = 0;
    readAsync(hpa, size, out, [&](Tick t) {
        done = true;
        when = t;
    });
    runUntil(done);
    return when;
}

} // namespace m2ndp
