#include "workloads/kvstore.hh"

#include <algorithm>
#include <cstring>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace m2ndp::workloads {

namespace {

/** Node layout: key[24] | next[8] | value[64] | pad -> 128 B. */
constexpr std::uint64_t kNodeBytes = 128;
constexpr std::uint64_t kKeyOff = 0;
constexpr std::uint64_t kNextOff = 24;
constexpr std::uint64_t kValueOff = 32;
/** Nodes per host staging buffer in setup(): 64 KiB per writeVirtual. */
constexpr std::uint64_t kStageNodes = 512;
/** Response slot: value[64] | status[8] @96 -> 128 B. */
constexpr std::uint64_t kSlotBytes = 128;
constexpr std::uint64_t kStatusOff = 96;

/** Host-side hash computation cost per request (Section IV-B). */
constexpr Tick kHashCost = 200 * kNs;

/**
 * GET: walk the chain, compare the 24 B key, copy the 64 B value into the
 * response slot (the uthread pool region). args: [0]=bucket addr,
 * [8..31]=key. One uthread per request (fine-grained NDP).
 */
const char *kGetKernel = R"(
    .name kvs_get
    li   x3, %args
    ld   x4, 0(x3)
    ld   x5, 8(x3)
    ld   x6, 16(x3)
    ld   x7, 24(x3)
    ld   x8, 0(x4)         # head node VA
walk:
    beq  x8, x0, notfound
    ld   x9, 0(x8)
    bne  x9, x5, next
    ld   x9, 8(x8)
    bne  x9, x6, next
    ld   x9, 16(x8)
    bne  x9, x7, next
    vsetvli x0, x0, e64, m1
    vle64.v v1, 32(x8)
    vse64.v v1, 0(x1)
    vle64.v v2, 64(x8)
    vse64.v v2, 32(x1)
    li   x9, 1
    sd   x9, 96(x1)
    exit
next:
    ld   x8, 24(x8)
    j walk
notfound:
    li   x9, -1
    sd   x9, 96(x1)
)";

/** SET: walk the chain, overwrite the value with the slot contents. */
const char *kSetKernel = R"(
    .name kvs_set
    li   x3, %args
    ld   x4, 0(x3)
    ld   x5, 8(x3)
    ld   x6, 16(x3)
    ld   x7, 24(x3)
    ld   x8, 0(x4)
walk:
    beq  x8, x0, notfound
    ld   x9, 0(x8)
    bne  x9, x5, next
    ld   x9, 8(x8)
    bne  x9, x6, next
    ld   x9, 16(x8)
    bne  x9, x7, next
    vsetvli x0, x0, e64, m1
    vle64.v v1, 0(x1)
    vse64.v v1, 32(x8)
    vle64.v v2, 32(x1)
    vse64.v v2, 64(x8)
    li   x9, 1
    sd   x9, 96(x1)
    exit
next:
    ld   x8, 24(x8)
    j walk
notfound:
    li   x9, -1
    sd   x9, 96(x1)
)";

std::array<std::uint64_t, 3>
keyParts(std::uint64_t rank)
{
    return {mixHash64(rank * 3 + 1), mixHash64(rank * 3 + 2),
            mixHash64(rank * 3 + 3)};
}

std::uint64_t
valuePattern(std::uint64_t rank, unsigned version)
{
    return mixHash64(rank ^ (static_cast<std::uint64_t>(version) << 56));
}

} // namespace

KvstoreWorkload::KvstoreWorkload(System &sys, ProcessAddressSpace &proc,
                                 KvstoreConfig cfg)
    : sys_(sys), proc_(proc), cfg_(cfg)
{
}

std::uint64_t
KvstoreWorkload::keyHash(std::uint64_t rank) const
{
    return mixHash64(rank * 0x517cc1b727220a95ull) % cfg_.num_buckets;
}

Addr
KvstoreWorkload::bucketAddr(std::uint64_t hash) const
{
    return buckets_va_ + hash * 8;
}

void
KvstoreWorkload::setup()
{
    buckets_va_ = proc_.allocate(cfg_.num_buckets * 8 + 64);
    nodes_va_ = proc_.allocate(cfg_.num_items * kNodeBytes + 64);
    resp_va_ = proc_.allocate(
        static_cast<std::uint64_t>(cfg_.num_requests) * kSlotBytes + 64);

    // Chain heads: last inserted item becomes the head. Nodes are built
    // in a reused host buffer and placed one full buffer per
    // writeVirtual; the pad bytes are never written, so they stay zero.
    std::vector<std::uint64_t> heads(cfg_.num_buckets, 0);
    std::vector<std::uint8_t> stage(kStageNodes * kNodeBytes, 0);
    std::uint64_t staged = 0;
    for (std::uint64_t rank = 0; rank < cfg_.num_items; ++rank) {
        std::uint64_t h = keyHash(rank);
        std::uint8_t *node = stage.data() + staged * kNodeBytes;
        auto key = keyParts(rank);
        std::memcpy(node + kKeyOff, key.data(), 24);
        std::memcpy(node + kNextOff, &heads[h], 8);
        std::uint64_t v0 = valuePattern(rank, 0);
        for (unsigned w = 0; w < 8; ++w) {
            std::uint64_t word = v0 + w;
            std::memcpy(node + kValueOff + w * 8, &word, 8);
        }
        heads[h] = nodes_va_ + rank * kNodeBytes;
        if (++staged == kStageNodes || rank + 1 == cfg_.num_items) {
            sys_.writeVirtual(proc_,
                              nodes_va_ + (rank + 1 - staged) * kNodeBytes,
                              stage.data(), staged * kNodeBytes);
            staged = 0;
        }
    }
    sys_.writeVirtual(proc_, buckets_va_, heads.data(),
                      cfg_.num_buckets * 8);

    // Depth of rank r = items inserted after it in the same bucket (the
    // chain head is the last-inserted item). The placed head vector is
    // reused as the per-bucket counter.
    std::vector<std::uint64_t> &seen = heads;
    std::fill(seen.begin(), seen.end(), 0);
    chain_depth_.resize(cfg_.num_items);
    for (std::uint64_t rank = cfg_.num_items; rank-- > 0;)
        chain_depth_[rank] = seen[keyHash(rank)]++;
}

const std::vector<KvstoreWorkload::Request> &
KvstoreWorkload::trace()
{
    if (trace_.size() == cfg_.num_requests)
        return trace_;
    trace_.reserve(cfg_.num_requests);
    ZipfianGenerator zipf(cfg_.num_items, 0.99, cfg_.seed);
    Rng rng(cfg_.seed ^ 0xABCD);
    Tick arrival = 0;
    double mean_gap =
        cfg_.arrival_rate > 0.0 ? 1e12 / cfg_.arrival_rate : 0.0;
    for (unsigned i = 0; i < cfg_.num_requests; ++i) {
        Request r;
        r.is_get = rng.nextDouble() < cfg_.get_fraction;
        r.key_rank = zipf.next();
        if (cfg_.arrival_rate > 0.0)
            arrival += static_cast<Tick>(rng.nextExponential(mean_gap));
        r.arrival = arrival;
        trace_.push_back(r);
    }
    return trace_;
}

/**
 * One trace run's state. Request callbacks reach it through one pointer
 * and name their request by its trace index, so every capture is
 * {this, idx[, reads left]} and fits InlineCallback's budget; anything
 * else a step needs is recomputed from the trace entry.
 */
struct KvstoreWorkload::Run
{
    Run(KvstoreWorkload &w_, HostCxlPort &port_, NdpRuntime *rt_)
        : w(w_), port(port_), rt(rt_), eq(w_.sys_.eq()),
          trace(w_.trace()), t0(trace.size()), base(eq.now())
    {
        if (rt != nullptr) {
            // One stream per client connection: requests round-robin
            // over the pool, so up to kM2FuncLaunchSlots kernels are in
            // flight concurrently while each stream stays in order
            // (Section III-C, MPS-style concurrency).
            for (unsigned s = 0; s < kM2FuncLaunchSlots; ++s)
                streams.push_back(&rt->createStream());
        }
    }

    /**
     * Issue every request the arrival process and the closed-loop window
     * (16 in flight, modelling 16 server threads) allow right now; the
     * host hashes each key before it touches memory.
     */
    void
    launchNext()
    {
        const bool open_loop = w.cfg_.arrival_rate > 0.0;
        while (next_req < trace.size() &&
               (open_loop || in_flight < kClosedLoopWindow)) {
            Tick arrival = base + trace[next_req].arrival;
            if (open_loop && arrival > eq.now()) {
                // Open loop: wait for the next arrival.
                eq.schedule(arrival, [this] { launchNext(); });
                return;
            }
            unsigned idx = next_req++;
            ++in_flight;
            t0[idx] = std::max(eq.now(), arrival);
            if (rt != nullptr) {
                eq.schedule(t0[idx] + kHashCost,
                            [this, idx] { offload(idx); });
            } else {
                eq.schedule(t0[idx] + kHashCost,
                            [this, idx] { walk(idx, chainHops(idx)); });
            }
        }
    }

    // ---- NDP offload: GET/SET kernels through the runtime ----

    Addr
    slotVa(unsigned idx) const
    {
        return w.resp_va_ + static_cast<std::uint64_t>(idx) * kSlotBytes;
    }

    void
    launchKernel(unsigned idx)
    {
        const Request &req = trace[idx];
        auto key = keyParts(req.key_rank);
        Addr slot = slotVa(idx);
        streams[idx % streams.size()]
            ->launch(makeLaunch(req.is_get ? get_kid : set_kid, slot,
                                slot + 32,
                                {w.bucketAddr(w.keyHash(req.key_rank)),
                                 key[0], key[1], key[2]}))
            .onComplete([this, idx](std::int64_t, Tick) { launched(idx); });
    }

    void
    offload(unsigned idx)
    {
        if (trace[idx].is_get) {
            launchKernel(idx);
            return;
        }
        // SET ships the new value into the slot first.
        std::uint8_t val[64];
        writeValue(idx, val);
        rt->port().writeAsync(*w.proc_.translate(slotVa(idx)), val, 64,
                              [this, idx](Tick) { launchKernel(idx); });
    }

    void
    launched(unsigned idx)
    {
        if (trace[idx].is_get) {
            // Fetch the 64 B value from the response slot.
            rt->port().readAsync(*w.proc_.translate(slotVa(idx)), 64,
                                 [this, idx](Tick t) { finish(idx, t); });
        } else {
            finish(idx, eq.now());
        }
    }

    // ---- host baseline: the host walks the chain itself ----

    unsigned
    chainHops(unsigned idx) const
    {
        return static_cast<unsigned>(
                   w.chain_depth_[trace[idx].key_rank]) +
               1;
    }

    /**
     * Chain of dependent reads (bucket head, then per-node keys), then
     * the 64 B value read/write; @p remaining counts the reads left.
     */
    void
    walk(unsigned idx, unsigned remaining)
    {
        std::uint64_t rank = trace[idx].key_rank;
        Addr node_pa = *w.proc_.translate(w.nodes_va_ + rank * kNodeBytes);
        if (remaining > 0) {
            Addr a = remaining == chainHops(idx)
                         ? *w.proc_.translate(w.bucketAddr(w.keyHash(rank)))
                         : node_pa + kKeyOff;
            port.readAsync(a, 32, [this, idx, remaining](Tick) {
                walk(idx, remaining - 1);
            });
            return;
        }
        auto done = [this, idx](Tick t) { finish(idx, t); };
        if (trace[idx].is_get) {
            port.readAsync(node_pa + kValueOff, 64, done);
        } else {
            // Same updated-value pattern the NDP SET writes, so later
            // runs over the same table still verify.
            std::uint8_t val[64];
            writeValue(idx, val);
            port.writeAsync(node_pa + kValueOff, val, 64, done);
        }
    }

    // ---- shared ----

    /** The updated value (version 1) a SET of request @p idx stores. */
    void
    writeValue(unsigned idx, std::uint8_t (&val)[64]) const
    {
        std::uint64_t v1 = valuePattern(trace[idx].key_rank, 1);
        for (unsigned w8 = 0; w8 < 8; ++w8) {
            std::uint64_t word = v1 + w8;
            std::memcpy(val + w8 * 8, &word, 8);
        }
    }

    void
    finish(unsigned idx, Tick t_end)
    {
        result.latency_ns.add(static_cast<double>(t_end - t0[idx]) / kNs);
        first = std::min(first, t0[idx]);
        last = std::max(last, t_end);
        ++result.completed;
        --in_flight;
        launchNext();
    }

    KvstoreResult
    run()
    {
        launchNext();
        w.sys_.run();
        result.throughput_rps =
            result.completed > 0 && last > first
                ? static_cast<double>(result.completed) /
                      ticksToSeconds(last - first)
                : 0.0;
        return std::move(result);
    }

    static constexpr unsigned kClosedLoopWindow = 16;

    KvstoreWorkload &w;
    HostCxlPort &port;
    NdpRuntime *rt; ///< null for the host baseline
    EventQueue &eq;
    const std::vector<Request> &trace;
    std::vector<Tick> t0; ///< per request: when the host took it
    std::vector<NdpStream *> streams;
    std::int64_t get_kid = 0;
    std::int64_t set_kid = 0;
    const Tick base;
    unsigned next_req = 0;
    unsigned in_flight = 0;
    Tick first = kTickMax;
    Tick last = 0;
    KvstoreResult result;
};

KvstoreResult
KvstoreWorkload::runNdp(NdpRuntime &rt)
{
    KernelResources res;
    res.num_int_regs = 10;
    res.num_vector_regs = 3;
    std::int64_t get_kid = rt.registerKernel(kGetKernel, res);
    std::int64_t set_kid = rt.registerKernel(kSetKernel, res);
    M2_ASSERT(get_kid > 0 && set_kid > 0, "kvs kernel registration failed");

    Run r(*this, rt.port(), &rt);
    r.get_kid = get_kid;
    r.set_kid = set_kid;
    KvstoreResult result = r.run();

    // Verify a sample of GET responses.
    result.verified = true;
    unsigned checked = 0;
    for (unsigned i = 0; i < r.trace.size() && checked < 64; ++i) {
        if (!r.trace[i].is_get)
            continue;
        Addr slot = r.slotVa(i);
        auto status = sys_.readVirtual<std::int64_t>(proc_,
                                                     slot + kStatusOff);
        if (status != 1) {
            result.verified = false;
            break;
        }
        auto word = sys_.readVirtual<std::uint64_t>(proc_, slot);
        std::uint64_t rank = r.trace[i].key_rank;
        if (word != valuePattern(rank, 0) &&
            word != valuePattern(rank, 1)) {
            result.verified = false;
            break;
        }
        ++checked;
    }
    return result;
}

KvstoreResult
KvstoreWorkload::runHostBaseline(HostCxlPort &port)
{
    KvstoreResult result = Run(*this, port, nullptr).run();
    result.verified = true;
    return result;
}

} // namespace m2ndp::workloads
