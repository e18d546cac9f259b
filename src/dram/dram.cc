#include "dram/dram.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace m2ndp {

DramTiming
DramTiming::lpddr5()
{
    // 12.8 GB/s per channel with 32 B granularity: one 32 B burst per
    // 2.5 ns. Command clock 800 MHz (1.25 ns) -> burst occupies 2 cycles.
    return DramTiming{
        .name = "LPDDR5",
        .tck = 1250,
        .n_rc = 48,
        .n_rcd = 15,
        .n_cl = 20,
        .n_rp = 15,
        .n_ccd = 2,
        .burst_cycles = 2,
        .banks = 16,
        .access_bytes = 32,
        .row_bytes = 2048,
    };
}

DramTiming
DramTiming::ddr5()
{
    // 51.2 GB/s per channel with 64 B granularity: one 64 B burst per
    // 1.25 ns. Command clock 1.6 GHz (0.625 ns) -> burst occupies 2 cycles.
    return DramTiming{
        .name = "DDR5-6400",
        .tck = 625,
        .n_rc = 149,
        .n_rcd = 46,
        .n_cl = 46,
        .n_rp = 46,
        .n_ccd = 2,
        .burst_cycles = 2,
        .banks = 32,
        .access_bytes = 64,
        .row_bytes = 8192,
    };
}

DramTiming
DramTiming::hbm2()
{
    // 32 GB/s per pseudo-channel with 32 B granularity: one 32 B burst per
    // 1 ns. Command clock 1 GHz (Table IV) -> burst occupies 1 cycle.
    return DramTiming{
        .name = "HBM2",
        .tck = 1000,
        .n_rc = 48,
        .n_rcd = 14,
        .n_cl = 14,
        .n_rp = 15,
        .n_ccd = 1,
        .burst_cycles = 1,
        .banks = 16,
        .access_bytes = 32,
        .row_bytes = 1024,
    };
}

DramAddressMap::DramAddressMap(unsigned channels, const DramTiming &timing,
                               std::uint64_t interleave_bytes)
    : channels_(channels), banks_(timing.banks),
      interleave_(interleave_bytes),
      blocks_per_row_(std::max<std::uint64_t>(1,
          timing.row_bytes / interleave_bytes))
{
    M2_ASSERT(channels_ > 0, "DRAM device needs channels");
    M2_ASSERT(isPowerOfTwo(interleave_), "interleave must be a power of two");
}

DramAddressMap::Coords
DramAddressMap::decode(Addr local_addr) const
{
    std::uint64_t block = local_addr / interleave_;
    // Hashed channel selection decorrelates channel from low-order bits so
    // strided accesses spread evenly [114].
    unsigned channel = static_cast<unsigned>(mixHash64(block) % channels_);
    // Fold the channel out; consecutive blocks on the same channel then walk
    // rows sequentially, preserving streaming row-buffer locality.
    std::uint64_t local_block = block / channels_;
    std::uint64_t row_block = local_block / blocks_per_row_;
    // Bank selection is hashed as well (bank-XOR interleaving): without it,
    // two streams whose base addresses differ by a multiple of the bank-
    // mapping period (e.g. separate 2 MiB pages) land in the *same* bank
    // with different rows on every access and serialize on tRC.
    unsigned bank =
        static_cast<unsigned>(mixHash64(row_block * 0x9E3779B1ull) % banks_);
    // The row tag is the row-block id itself (unique), so aliasing cannot
    // produce false row hits.
    std::uint64_t row = row_block;
    return Coords{channel, bank, row};
}

DramChannel::DramChannel(EventQueue &eq, const DramTiming &timing)
    : eq_(eq), timing_(timing), banks_(timing.banks)
{
}

Tick
DramChannel::book(const MemPacket &pkt, unsigned bank_idx, std::uint64_t row,
                  Tick at)
{
    // Immediate FCFS-at-arrival booking: the request is committed to
    // the bank state machine right away, with its logical arrival tick as
    // the floor on every timing term — the next-free-tick pattern, so no
    // scheduler event runs just to make sim-time catch up. Column
    // commands are spaced by tCCD (the data-bus rate), and row misses
    // chain activates per bank (tRP/tRCD/tRC) — a slow miss delays later
    // bookings by at most one activate, never cumulatively. This is an
    // accepted approximation of the old event-driven FR-FCFS scheduler:
    // that one could reorder *same-tick* arrivals (earliest-ready scan,
    // row hits win) before booking, whereas this books strictly in
    // arrival order (see docs/performance.md, fused response delivery).
    M2_ASSERT(at + eq_.deliverySlack() >= eq_.now(),
              "DRAM delivery in the past");

    BankState &bank = banks_[bank_idx];
    const bool hit = bank.row_open && bank.open_row == row;
    Tick ready;
    if (hit) {
        ++stats_.row_hits;
        ready = std::max(at, bank.col_ready);
    } else {
        ++stats_.row_misses;
        Tick pre_at = std::max(at, bank.col_ready);
        Tick act_at = std::max(pre_at + cycles(timing_.n_rp),
                               bank.next_act);
        ready = act_at + cycles(timing_.n_rcd);
        bank.row_open = true;
        bank.open_row = row;
        bank.next_act = act_at + cycles(timing_.n_rc);
    }

    // The command/data bus is modeled as a token clock: each booking
    // consumes one tCCD slot (tCCD >= burst occupancy is the data-bus
    // rate constraint) counted from the arrival, so a far-future row miss
    // cannot ratchet the bus ahead for requests that could issue earlier
    // (bandwidth stays conserved on average; transiently overlapping
    // bursts are an accepted approximation).
    Tick slot = bus_.book(eq_, at, cycles(timing_.n_ccd));
    Tick col_at = std::max(ready, slot);

    Tick data_start = col_at + cycles(timing_.n_cl);
    Tick done = data_start + cycles(timing_.burst_cycles);
    bank.col_ready = col_at + cycles(timing_.n_ccd);
    stats_.busy_ticks += cycles(timing_.burst_cycles);

    if (pkt.op == MemOp::Write)
        ++stats_.writes;
    else
        ++stats_.reads;
    stats_.bytes += pkt.size;
    return done;
}

DramDevice::DramDevice(EventQueue &eq, const DramTiming &timing,
                       unsigned channels, std::uint64_t interleave_bytes,
                       Tick drain_quantum)
    : eq_(eq), timing_(timing), map_(channels, timing, interleave_bytes),
      drain_quantum_(drain_quantum), completer_(eq, [this] { completeReady(); })
{
    // Quantized drains deliver completions up to one quantum after their
    // (exact) completion tick; fused re-entry paths (fill-triggered
    // writebacks, stall retries, response-crossbar hops) then see
    // bounded-past arrival ticks, which the causality checks must accept.
    eq_.allowDeliverySlack(drain_quantum_);
    channels_.reserve(channels);
    for (unsigned i = 0; i < channels; ++i)
        channels_.push_back(std::make_unique<DramChannel>(eq, timing));
    // Outstanding bookings are bounded by upstream MSHR capacity; reserve
    // past that so the steady state never grows the vector.
    ready_.reserve(512 * channels);
}

DramDevice::~DramDevice()
{
    for (auto &e : ready_)
        MemPacketPool::release(e.pkt);
}

void
DramDevice::receive(MemPacketPtr pkt, Tick at)
{
    auto coords = map_.decode(pkt->addr);
    Tick done = channels_[coords.channel]->book(*pkt, coords.bank,
                                                coords.row, at);

    // Posted traffic (writebacks, fire-and-forget writes) carries no
    // completion work at all: recycle the packet without an event.
    if (!pkt->onComplete && pkt->num_hops == 0)
        return;

    // Batched completion: park the access on the device-level ready-heap
    // and let one Ticker drain everything whose data tick has arrived —
    // same-tick completions coalesce into a single event even across
    // channels (previously each of the 32 channels armed its own ticker).
    // Delivery is quantized up to the drain edge; the parked completion
    // tick stays exact.
    ready_.push_back(ReadyEntry{pkt.release(), done, ready_seq_++});
    std::push_heap(ready_.begin(), ready_.end(), readyAfter);
    completer_.armAt(drainEdge(done));
}

void
DramDevice::completeReady()
{
    const Tick now = eq_.now();
    // Pop due entries in (when, seq) order: deterministic, time-ordered.
    // Completion callbacks can re-enter receive() (upstream fill ->
    // retry -> new booking), so re-check the heap top each iteration.
    while (!ready_.empty() && ready_.front().when <= now) {
        std::pop_heap(ready_.begin(), ready_.end(), readyAfter);
        ReadyEntry e = ready_.back();
        ready_.pop_back();
        MemPacketPtr pkt(e.pkt);
        pkt->complete(e.when);
    }
    if (!ready_.empty())
        completer_.armAt(drainEdge(ready_.front().when));
}

unsigned
DramDevice::channelOf(Addr local_addr) const
{
    return map_.decode(local_addr).channel;
}

DramStats
DramDevice::totalStats() const
{
    DramStats total;
    for (const auto &ch : channels_) {
        const auto &s = ch->stats();
        total.reads += s.reads;
        total.writes += s.writes;
        total.row_hits += s.row_hits;
        total.row_misses += s.row_misses;
        total.bytes += s.bytes;
        total.busy_ticks += s.busy_ticks;
    }
    return total;
}

double
DramDevice::peakBandwidth() const
{
    // access_bytes per burst_cycles * tck per channel.
    double per_channel =
        static_cast<double>(timing_.access_bytes) /
        (static_cast<double>(timing_.burst_cycles) *
         ticksToSeconds(timing_.tck));
    return per_channel * static_cast<double>(channels_.size());
}

} // namespace m2ndp
