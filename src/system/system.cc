#include "system/system.hh"

#include <algorithm>
#include <cstdlib>

#include "common/log.hh"
#include "common/rng.hh"

namespace m2ndp {

CxlLinkConfig
SystemConfig::linkForLoadToUse(Tick ltu)
{
    // Idle read LtU decomposes as: 2x host overhead + 2x (stack + wire)
    // + device-internal L2/DRAM access (~55 ns). Solve for the one-way
    // stack+wire latency.
    CxlLinkConfig link;
    Tick fixed = 2 * kHostOverhead + 55 * kNs;
    M2_ASSERT(ltu > fixed, "load-to-use below physical floor");
    link.oneway_latency = (ltu - fixed) / 2;
    return link;
}

System::System(SystemConfig cfg) : cfg_(cfg)
{
    M2_ASSERT(cfg_.num_devices >= 1, "system needs at least one device");

    unsigned threads = cfg_.threads;
    if (threads == 0) {
        const char *env = std::getenv("M2NDP_THREADS");
        threads = env != nullptr
                      ? static_cast<unsigned>(std::strtoul(env, nullptr, 10))
                      : 1;
        if (threads == 0)
            threads = 1;
    }

    // Conservative lookahead: the smallest latency any cross-partition
    // message adds to its sender's clock. Every path crossing a partition
    // boundary — CXL.mem sends, CXL.io doorbells (500 ns one-way), P2P
    // hops — pays at least the link's one-way stack+wire latency.
    constexpr Tick kP2pOnewayLatency = 70 * kNs; // through the switch
    Tick lookahead = cfg_.link.oneway_latency;
    if (cfg_.num_devices > 1)
        lookahead = std::min(lookahead, kP2pOnewayLatency);

    for (unsigned d = 0; d < cfg_.num_devices; ++d) {
        DeviceConfig dc = cfg_.device;
        dc.index = d;
        device_queues_.push_back(std::make_unique<EventQueue>());
        devices_.push_back(std::make_unique<CxlMemoryExpander>(
            *device_queues_.back(), mem_, dc));

        FaultConfig fc = cfg_.fault;
        fc.seed = SplitMix64(cfg_.fault.seed ^ (0xFA17u + d)).next();
        links_.push_back(std::make_unique<CxlLink>(
            eq_, *device_queues_.back(), cfg_.link, fc));

        allocators_.push_back(std::make_unique<PhysAllocator>(
            layout::deviceBase(d), layout::kDramTlbOffset));
    }

    std::vector<EventQueue *> dev_queues;
    for (auto &q : device_queues_)
        dev_queues.push_back(q.get());
    domain_ = std::make_unique<SimDomain>(eq_, std::move(dev_queues),
                                          lookahead, threads);
    eq_.setDriver(domain_.get());

    for (unsigned d = 0; d < cfg_.num_devices; ++d) {
        host_ports_.push_back(std::make_unique<HostCxlPort>(
            eq_, *links_[d], *devices_[d], *domain_, SimDomain::deviceId(d)));
    }

    // P2P routing through the switch (Section III-I): each hop crosses a
    // device-to-device partition boundary at the P2P one-way latency
    // (>= the domain lookahead by construction).
    for (auto &dev : devices_) {
        p2p_pools_.push_back(std::make_unique<SlabPool<P2pRoute>>());
        dev->setPeerAccess([this](unsigned src, MemOp op, Addr pa,
                                  std::uint32_t size, TickCallback done) {
            unsigned target = layout::deviceOf(pa);
            M2_ASSERT(target < devices_.size(),
                      "P2P to nonexistent device ", target);
            M2_ASSERT(target != src, "P2P to self");
            // The route state (including the 56 B completion callback)
            // rides one pooled node so every hop lambda below captures
            // two pointers and stays inside the InlineCallback buffer.
            P2pRoute *rt = p2p_pools_[src]->acquire();
            rt->src = src;
            rt->target = target;
            rt->op = op;
            rt->pa = pa;
            rt->size = size;
            rt->done = std::move(done);
            Tick arrive = device_queues_[src]->now() + kP2pOnewayLatency;
            domain_->post(
                SimDomain::deviceId(src), SimDomain::deviceId(target),
                arrive, [this, rt] {
                    devices_[rt->target]->peerMemAccess(
                        rt->op, rt->pa, rt->size, [this, rt](Tick t) {
                            EventQueue &tq = *device_queues_[rt->target];
                            domain_->post(
                                SimDomain::deviceId(rt->target),
                                SimDomain::deviceId(rt->src),
                                std::max(tq.now(), t) +
                                    kP2pOnewayLatency,
                                [this, rt, t] {
                                    TickCallback fin = std::move(rt->done);
                                    p2p_pools_[rt->src]->release(rt);
                                    fin(t + kP2pOnewayLatency);
                                });
                        });
                });
        });
    }
}

System::~System()
{
    // The host queue outlives the domain; drop the dangling driver hook.
    eq_.setDriver(nullptr);
}

ProcessAddressSpace &
System::createProcess()
{
    std::vector<PhysAllocator *> allocs;
    for (auto &a : allocators_)
        allocs.push_back(a.get());
    processes_.push_back(std::make_unique<ProcessAddressSpace>(
        next_asid_++, std::move(allocs)));
    for (auto &dev : devices_)
        dev->attachProcess(&processes_.back()->pageTable());
    return *processes_.back();
}

std::unique_ptr<NdpRuntime>
System::createRuntime(ProcessAddressSpace &process, NdpRuntimeConfig cfg)
{
    // One-time CXL.io initialization on every device: allocate the M2func
    // region and install the packet-filter entry (Section III-B).
    std::vector<HostCxlPort *> ports;
    std::vector<Addr> regions;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        ports.push_back(host_ports_[d].get());
        regions.push_back(devices_[d]->allocateM2FuncRegion(process.asid()));
    }
    return std::make_unique<NdpRuntime>(std::move(ports), process,
                                        std::move(regions), cfg);
}

void
System::writeVirtual(const ProcessAddressSpace &process, Addr va,
                     const void *data, std::uint64_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint64_t page = process.pageTable().pageSize();
    while (size > 0) {
        auto pa = process.translate(va);
        M2_ASSERT(pa.has_value(), "writeVirtual: unmapped VA ", va);
        std::uint64_t chunk = std::min<std::uint64_t>(size,
                                                      page - (va % page));
        mem_.write(*pa, bytes, chunk);
        va += chunk;
        bytes += chunk;
        size -= chunk;
    }
}

void
System::readVirtual(const ProcessAddressSpace &process, Addr va, void *out,
                    std::uint64_t size) const
{
    auto *bytes = static_cast<std::uint8_t *>(out);
    std::uint64_t page = process.pageTable().pageSize();
    while (size > 0) {
        auto pa = process.translate(va);
        M2_ASSERT(pa.has_value(), "readVirtual: unmapped VA ", va);
        std::uint64_t chunk = std::min<std::uint64_t>(size,
                                                      page - (va % page));
        mem_.read(*pa, bytes, chunk);
        va += chunk;
        bytes += chunk;
        size -= chunk;
    }
}

} // namespace m2ndp
